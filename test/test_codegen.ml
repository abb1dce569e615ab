(* C code generation: the emitted program must compile with a real C
   compiler and its scheduled-order execution must agree with the
   dataflow reference (the program self-checks and exits 0). *)

module Schedule = Cyclo.Schedule

let check_bool = Alcotest.(check bool)
let check = Alcotest.(check int)

let compacted g topo = (Cyclo.Compaction.run_on g topo).Cyclo.Compaction.best

let cc_available =
  lazy (Sys.command "cc --version > /dev/null 2>&1" = 0)

let compile_and_run source_path =
  let exe = Filename.temp_file "csched" ".exe" in
  let cmd =
    Printf.sprintf "cc -Wall -Wextra -Werror -O2 -pthread %s -o %s 2> %s.log"
      (Filename.quote source_path) (Filename.quote exe) (Filename.quote exe)
  in
  let compile_rc = Sys.command cmd in
  let run_rc =
    if compile_rc = 0 then
      Sys.command (Printf.sprintf "%s > /dev/null 2>&1" (Filename.quote exe))
    else -1
  in
  (try Sys.remove exe with Sys_error _ -> ());
  (try Sys.remove (exe ^ ".log") with Sys_error _ -> ());
  (compile_rc, run_rc)

let end_to_end name sched =
  if not (Lazy.force cc_available) then ()
  else begin
    let path = Filename.temp_file "csched" ".c" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Out_channel.with_open_text path (fun oc ->
            output_string oc (Codegen.C_emitter.emit ~iterations:48 sched));
        let compile_rc, run_rc = compile_and_run path in
        check (name ^ ": compiles under -Werror") 0 compile_rc;
        check (name ^ ": self-check passes") 0 run_rc)
  end

let contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let test_emit_structure () =
  let g = Workloads.Examples.fig1b in
  let s = compacted g (Topology.complete 4) in
  let src = Codegen.C_emitter.emit s in
  check_bool "has main" true (contains src "int main(void)");
  check_bool "node count" true (contains src "#define NODES 6");
  check_bool "documents the table" true (contains src "Schedule table");
  check_bool "issue order table" true (contains src "issue_order");
  check_bool "initial tokens" true (contains src "initial token")

let test_emit_deterministic () =
  let g = Workloads.Examples.fig7 in
  let s = compacted g (Topology.mesh ~rows:2 ~cols:4) in
  Alcotest.(check string) "same source twice"
    (Codegen.C_emitter.emit s) (Codegen.C_emitter.emit s)

let test_emit_rejects_bad_input () =
  let g = Workloads.Examples.fig1b in
  let s = compacted g (Topology.complete 4) in
  check_bool "iterations < 1" true
    (match Codegen.C_emitter.emit ~iterations:0 s with
    | exception Invalid_argument _ -> true
    | _ -> false);
  let incomplete =
    Schedule.unassign s (Dataflow.Csdfg.node_of_label g "A")
  in
  check_bool "incomplete schedule" true
    (match Codegen.C_emitter.emit incomplete with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_fig1b_end_to_end () =
  let topo =
    Topology.relabel (Topology.mesh ~rows:2 ~cols:2)
      Workloads.Examples.fig1_mesh_permutation
  in
  end_to_end "fig1b" (compacted Workloads.Examples.fig1b topo)

let test_fig7_end_to_end () =
  end_to_end "fig7" (compacted Workloads.Examples.fig7 (Topology.hypercube 3))

let test_startup_schedule_end_to_end () =
  (* un-compacted (no retiming) schedules must also pass *)
  let s =
    Cyclo.Startup.run_on Workloads.Dsp.diffeq (Topology.mesh ~rows:2 ~cols:2)
  in
  end_to_end "diffeq startup" s

let test_random_graphs_end_to_end () =
  if Lazy.force cc_available then
    List.iter
      (fun seed ->
        let params =
          { Workloads.Random_gen.default with nodes = 10; feedback_edges = 3 }
        in
        let g = Workloads.Random_gen.generate_connected ~params ~seed () in
        end_to_end
          (Printf.sprintf "random seed %d" seed)
          (compacted g (Topology.ring 4)))
      [ 11; 12; 13 ]

let test_heterogeneous_end_to_end () =
  let topo = Topology.complete 4 in
  let r =
    Cyclo.Compaction.run_on ~speeds:[| 1; 2; 1; 3 |] Workloads.Examples.fig1b
      topo
  in
  end_to_end "heterogeneous fig1b" r.Cyclo.Compaction.best

let () =
  Alcotest.run "codegen"
    [
      ( "emission",
        [
          Alcotest.test_case "structure" `Quick test_emit_structure;
          Alcotest.test_case "deterministic" `Quick test_emit_deterministic;
          Alcotest.test_case "bad input" `Quick test_emit_rejects_bad_input;
        ] );
      ( "compile-and-run",
        [
          Alcotest.test_case "fig1b" `Quick test_fig1b_end_to_end;
          Alcotest.test_case "fig7" `Quick test_fig7_end_to_end;
          Alcotest.test_case "startup diffeq" `Quick
            test_startup_schedule_end_to_end;
          Alcotest.test_case "random graphs" `Quick test_random_graphs_end_to_end;
          Alcotest.test_case "heterogeneous" `Quick test_heterogeneous_end_to_end;
        ] );
    ]
