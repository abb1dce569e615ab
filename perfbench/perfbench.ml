(* The repository benchmark: one seeded, fixed-work workload per run.

     perfbench --workload NAME --seed N --seconds S --trace 0|1
               [--ccsched PATH] [--out DIR]

   With --trace 0 it prints the end-to-end metrics; with --trace 1 it
   repeats the same op sequence under the span ledger and prints the
   per-layer metrics, writing the spans to DIR.  The last line of
   standard output is the JSON result; the exit code is 1 when any
   output check failed. *)

let workloads = [ "suite-simulate"; "daemon-mix"; "scale-compact" ]

let () =
  (* a daemon that dies mid-write must surface as an error, not kill us *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workload = ref "" and seed = ref 1 and seconds = ref 10 in
  let trace = ref 0 and ccsched = ref "" and out = ref ".bench_out" in
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        " " ^ String.concat "|" workloads );
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S nominal run length");
      ("--trace", Arg.Set_int trace, "0|1 traced per-layer run");
      ( "--ccsched",
        Arg.Set_string ccsched,
        "PATH the ccsched binary (daemon-mix)" );
      ("--out", Arg.Set_string out, "DIR span files and daemon state");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("perfbench: unknown workload " ^ !workload);
    exit 2
  end;
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "perfbench: need --seconds >= 1 and --trace 0|1";
    exit 2
  end;
  let traced = !trace = 1 in
  let spans_path =
    Filename.concat !out
      (Printf.sprintf "%s-seed%d.spans.jsonl" !workload !seed)
  in
  let seed = !seed and seconds = !seconds in
  let outcome =
    match !workload with
    | "suite-simulate" -> Suite_simulate.run ~seed ~seconds ~traced ~spans_path
    | "scale-compact" -> Scale_compact.run ~seed ~seconds ~traced ~spans_path
    | _ ->
        Daemon_mix.run ~seed ~seconds ~traced ~spans_path ~ccsched:!ccsched
          ~dir:!out
  in
  Common.print_outcome ~workload:!workload ~seed ~traced outcome;
  if outcome.Common.problems <> [] then exit 1
