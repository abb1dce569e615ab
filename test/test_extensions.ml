(* Tests for the extension modules: retiming inference, prologue /
   epilogue generation, the exact branch-and-bound scheduler, schedule
   export, weighted topologies and the priority queue. *)

module Csdfg = Dataflow.Csdfg
module Retiming = Dataflow.Retiming
module Schedule = Cyclo.Schedule
module Pipeline = Cyclo.Pipeline
module Exhaustive = Cyclo.Exhaustive

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let fig1b = Workloads.Examples.fig1b

let paper_mesh () =
  Topology.relabel (Topology.mesh ~rows:2 ~cols:2)
    Workloads.Examples.fig1_mesh_permutation

let contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Pipeline                                                             *)
(* ------------------------------------------------------------------ *)

let compaction_best () =
  (Cyclo.Compaction.run_on fig1b (paper_mesh ())).Cyclo.Compaction.best

let test_pipeline_build () =
  let p = Pipeline.build (compaction_best ()) in
  check "prologue length = sum of retiming"
    (Array.fold_left ( + ) 0 p.Pipeline.retiming)
    (Pipeline.prologue_length p);
  check_bool "depth = max retiming" true
    (p.Pipeline.depth = Array.fold_left max 0 p.Pipeline.retiming);
  check_bool "depth positive after compaction" true (p.Pipeline.depth >= 1)

let test_pipeline_prologue_iterations_in_range () =
  let p = Pipeline.build (compaction_best ()) in
  List.iter
    (fun i ->
      check_bool "iteration below node retiming" true
        (i.Pipeline.iteration < p.Pipeline.retiming.(i.Pipeline.node)))
    p.Pipeline.prologue

let test_pipeline_epilogue_counts () =
  let p = Pipeline.build (compaction_best ()) in
  let n = 40 in
  let expected =
    List.fold_left
      (fun acc v -> acc + (p.Pipeline.depth - p.Pipeline.retiming.(v)))
      0 (Csdfg.nodes fig1b)
  in
  check "epilogue size" expected (Pipeline.epilogue_length p ~n);
  (* Prologue + kernel instances + epilogue cover each node exactly
     n times: kernel runs n - depth times covering every node once. *)
  check "coverage"
    (6 * n)
    (Pipeline.prologue_length p
    + (6 * (n - p.Pipeline.depth))
    + Pipeline.epilogue_length p ~n)

let test_pipeline_overhead_vanishes () =
  let p = Pipeline.build (compaction_best ()) in
  let r100 = Pipeline.overhead_ratio p ~n:100 in
  let r10000 = Pipeline.overhead_ratio p ~n:10_000 in
  check_bool "overhead shrinks with n (paper §2 claim)" true
    (r10000 < r100 && r10000 < 0.01)

(* ------------------------------------------------------------------ *)
(* Exhaustive                                                           *)
(* ------------------------------------------------------------------ *)

let test_lower_bound () =
  let comm1 = Cyclo.Comm.zero ~n:1 ~name:"z1" in
  (* one processor: resource bound = total time *)
  check "resource bound" (Csdfg.total_time fig1b)
    (Exhaustive.lower_bound fig1b comm1);
  let comm8 = Cyclo.Comm.zero ~n:8 ~name:"z8" in
  (* eight processors: the cyclic bound (3) dominates ceil(8/8) = 1 *)
  check "iteration bound" 3 (Exhaustive.lower_bound fig1b comm8)

let test_exhaustive_tiny_chain () =
  let g = Workloads.Examples.tiny_chain in
  let comm = Cyclo.Comm.of_topology (Topology.complete 2) in
  match Exhaustive.solve g comm with
  | Exhaustive.Gave_up _ -> Alcotest.fail "tiny instance must solve"
  | Exhaustive.Optimal s ->
      check_bool "legal" true (Cyclo.Validator.is_legal s);
      (* Without retiming A -> B -> C serializes (A, B, C zero-delay
         chain): the static optimum is the sequential 4.  Cyclo-compaction
         retimes and reaches 3 — strictly better than any schedule of the
         un-retimed graph.  (The communication-free iteration bound of 2
         is unreachable here: every processor crossing demands one of the
         cycle's two delays, and three crossings would be needed.) *)
      check "optimal length without retiming" 4 (Schedule.length s);
      let r = Cyclo.Compaction.run_on g (Topology.complete 2) in
      check "retiming beats the static optimum" 3
        (Schedule.length r.Cyclo.Compaction.best)

let test_exhaustive_matches_bound_on_self_loop () =
  let g = Workloads.Examples.self_loop in
  let comm = Cyclo.Comm.of_topology (Topology.linear_array 1) in
  match Exhaustive.solve g comm with
  | Exhaustive.Optimal s -> check "length two" 2 (Schedule.length s)
  | Exhaustive.Gave_up _ -> Alcotest.fail "trivial instance"

let test_startup_vs_optimal_on_small_graphs () =
  (* The start-up list scheduler solves the same (non-retimed) problem as
     the exact solver, so it can never beat it; cyclo-compaction retimes
     and is only bounded below by the optimum on its OWN retimed graph
     (checked via optimality_gap). *)
  List.iter
    (fun seed ->
      let params =
        { Workloads.Random_gen.default with nodes = 5; feedback_edges = 2 }
      in
      let g = Workloads.Random_gen.generate_connected ~params ~seed () in
      let topo = Topology.linear_array 2 in
      let comm = Cyclo.Comm.of_topology topo in
      match Exhaustive.solve ~max_states:500_000 g comm with
      | Exhaustive.Gave_up _ -> ()
      | Exhaustive.Optimal opt ->
          let startup = Cyclo.Startup.run_on g topo in
          Alcotest.(check bool)
            (Printf.sprintf "seed %d: startup >= optimal" seed)
            true
            (Schedule.length startup >= Schedule.length opt);
          let r = Cyclo.Compaction.run_on g topo in
          (match Exhaustive.optimality_gap r.Cyclo.Compaction.best with
          | None -> ()
          | Some gap ->
              Alcotest.(check bool)
                (Printf.sprintf "seed %d: gap >= 0 on the retimed graph" seed)
                true (gap >= 0)))
    [ 0; 1; 2; 3; 4; 5; 6; 7 ]

let test_optimality_gap_fig1b () =
  let r = Cyclo.Compaction.run_on fig1b (paper_mesh ()) in
  match Exhaustive.optimality_gap r.Cyclo.Compaction.best with
  | None -> Alcotest.fail "fig1b is small enough to solve exactly"
  | Some gap ->
      check_bool "gap >= 0" true (gap >= 0);
      (* the heuristic reaches the iteration bound here, so the gap is 0 *)
      check "gap" 0 gap

(* Under a binding state budget a sharded solve must not depend on how
   its shards are spread over domains: run inline one after another, or
   racing on two domains where a solved shard cancels the others. *)
let test_sharded_budget_deterministic () =
  let outcome = function
    | Exhaustive.Optimal s -> "optimal " ^ Schedule.signature s
    | Exhaustive.Gave_up (Some s) -> "gave up " ^ Schedule.signature s
    | Exhaustive.Gave_up None -> "gave up"
  in
  for seed = 1 to 60 do
    for nodes = 4 to 6 do
      let params =
        { Workloads.Random_gen.default with nodes; feedback_edges = 2 }
      in
      let g = Workloads.Random_gen.generate_connected ~params ~seed () in
      List.iter
        (fun np ->
          let comm = Cyclo.Comm.of_topology (Topology.complete np) in
          List.iter
            (fun max_states ->
              List.iter
                (fun shards ->
                  let solve domains =
                    outcome
                      (Exhaustive.solve ~max_states ~shards ~domains g comm)
                  in
                  Alcotest.(check string)
                    (Printf.sprintf
                       "seed %d, %d nodes, %d PEs, %d states, %d shards" seed
                       nodes np max_states shards)
                    (solve 1) (solve 2))
                [ 2; 3 ])
            [ 50; 300; 2_000 ])
        [ 2; 3 ]
    done
  done

(* ------------------------------------------------------------------ *)
(* Export                                                               *)
(* ------------------------------------------------------------------ *)

let test_csv () =
  let s = Cyclo.Startup.run_on fig1b (paper_mesh ()) in
  let csv = Cyclo.Export.to_csv s in
  check_bool "header" true (contains csv "node,label,cb,ce,pe");
  check_bool "length comment" true (contains csv "# length=7");
  check "length comment + header + one line per node" 8
    (List.length (String.split_on_char '\n' (String.trim csv)));
  check_bool "row for A" true (contains csv "0,A,1,1,1")

let test_csv_roundtrip () =
  let topo = paper_mesh () in
  let comm = Cyclo.Comm.of_topology topo in
  let s = (Cyclo.Compaction.run_on fig1b topo).Cyclo.Compaction.best in
  (* read back against the retimed graph, as `ccsched validate` does *)
  let retimed = Retiming.apply (Schedule.dfg s) (Schedule.retiming s) in
  match Cyclo.Export.of_csv retimed comm (Cyclo.Export.to_csv s) with
  | Error msg -> Alcotest.fail msg
  | Ok s' ->
      check "same placements and length" 0 (Schedule.compare_assignments s s');
      check_bool "legal" true (Cyclo.Validator.is_legal s')

let test_csv_import_errors () =
  let comm = Cyclo.Comm.of_topology (paper_mesh ()) in
  let bad cases =
    List.iter
      (fun (what, text) ->
        check_bool what true
          (Result.is_error (Cyclo.Export.of_csv fig1b comm text)))
      cases
  in
  bad
    [
      ("unknown label", "node,label,cb,ce,pe\n0,ZZZ,1,1,1\n");
      ("malformed row", "node,label,cb,ce,pe\n0,A,x,1,1\n");
      ("duplicate node", "0,A,1,1,1\n0,A,2,2,1\n");
      ( "overlap",
        "0,A,1,1,1\n2,C,1,1,1\n" );
      ( "length too small",
        "# length=1\n0,A,1,1,1\n1,B,2,3,1\n2,C,4,4,1\n3,D,5,5,1\n4,E,6,7,1\n5,F,8,8,1\n" );
    ]

let test_json () =
  let s = Cyclo.Startup.run_on fig1b (paper_mesh ()) in
  let json = Cyclo.Export.to_json s in
  check_bool "graph name" true (contains json "\"graph\":\"fig1b\"");
  check_bool "length field" true (contains json "\"length\":7");
  check_bool "node entry" true (contains json "{\"node\":\"A\"");
  (* crude balance check *)
  let count c = String.fold_left (fun acc x -> if x = c then acc + 1 else acc) 0 json in
  check "balanced braces" (count '{') (count '}')

let test_gantt () =
  let s = Cyclo.Startup.run_on fig1b (paper_mesh ()) in
  let g = Cyclo.Export.gantt s in
  check_bool "lane for pe1" true (contains g "pe1");
  check_bool "lane for pe4" true (contains g "pe4");
  check_bool "multicycle drawn wide" true (contains g "B=");
  check "lanes + header" 5 (List.length (String.split_on_char '\n' (String.trim g)))

let test_gantt_unrolled () =
  let s = Cyclo.Startup.run_on fig1b (paper_mesh ()) in
  let g = Cyclo.Export.gantt_unrolled ~iterations:2 s in
  (* two iterations of a 7-step table: headers up to step 14, one
     boundary bar, instances tagged with their iteration *)
  check_bool "second iteration present" true (contains g "A1");
  check_bool "boundary marked" true (contains g "|");
  check_bool "first iteration tagged" true (contains g "A0");
  check_bool "rejects zero" true
    (match Cyclo.Export.gantt_unrolled ~iterations:0 s with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_svg () =
  let s = Cyclo.Startup.run_on fig1b (paper_mesh ()) in
  let svg = Cyclo.Export.to_svg s in
  check_bool "svg root" true (contains svg "<svg");
  check_bool "task box" true (contains svg "#9ecae8");
  check_bool "closes" true (contains svg "</svg>")

(* ------------------------------------------------------------------ *)
(* Weighted topologies                                                  *)
(* ------------------------------------------------------------------ *)

let test_weighted_distances () =
  (* 0 -3- 1 -1- 2 and a direct 0 -5- 2: going through 1 is cheaper. *)
  let t =
    Topology.of_weighted_links ~name:"w" ~n:3 [ (0, 1, 3); (1, 2, 1); (0, 2, 5) ]
  in
  check "via middle" 4 (Topology.hops t 0 2);
  check "direct link kept for neighbours" 3 (Topology.hops t 0 1);
  check "comm cost scales" 8
    (Cyclo.Comm.cost (Cyclo.Comm.of_topology t) ~src:0 ~dst:2 ~volume:2)

let test_weighted_rejects_bad_latency () =
  check_bool "zero latency" true
    (match Topology.of_weighted_links ~name:"w" ~n:2 [ (0, 1, 0) ] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_weighted_route_follows_cheap_path () =
  let t =
    Topology.of_weighted_links ~name:"w" ~n:3 [ (0, 1, 1); (1, 2, 1); (0, 2, 5) ]
  in
  Alcotest.(check (list int)) "route avoids the slow link" [ 0; 1; 2 ]
    (Topology.route t ~src:0 ~dst:2)

let test_unit_links_unchanged () =
  let t = Topology.ring 6 in
  check "unit latency = hop count" 3 (Topology.hops t 0 3);
  Alcotest.(check (list (triple int int int)))
    "weighted view has latency 1"
    (List.map (fun (a, b) -> (a, b, 1)) (Topology.links t))
    (Topology.weighted_links t)

let test_scheduling_on_weighted_topology () =
  let t =
    Topology.of_weighted_links ~name:"w4" ~n:4
      [ (0, 1, 1); (1, 2, 2); (2, 3, 1); (0, 3, 4) ]
  in
  let r = Cyclo.Compaction.run_on Workloads.Examples.fig7 t in
  check_bool "legal on weighted machine" true
    (Cyclo.Validator.is_legal r.Cyclo.Compaction.best)

(* ------------------------------------------------------------------ *)
(* Induced sub-machines                                                 *)
(* ------------------------------------------------------------------ *)

let test_induced_basic () =
  let t = Topology.induced (Topology.ring 8) [ 0; 1; 2; 3 ] in
  check "four processors" 4 (Topology.n_processors t);
  (* the wrap-around link 7-0 is gone: distances are line distances *)
  check "line distance" 3 (Topology.hops t 0 3);
  check "links" 3 (List.length (Topology.links t))

let test_induced_renumbers () =
  let t = Topology.induced (Topology.mesh ~rows:2 ~cols:4) [ 4; 5; 6; 7 ] in
  (* bottom row of the mesh, renumbered 0..3 *)
  check "n" 4 (Topology.n_processors t);
  check "consecutive" 1 (Topology.hops t 0 1);
  check "ends" 3 (Topology.hops t 0 3)

let test_induced_disconnected_rejected () =
  check_bool "two mesh corners" true
    (match Topology.induced (Topology.mesh ~rows:2 ~cols:4) [ 0; 7 ] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_induced_empty_rejected () =
  check_bool "empty" true
    (match Topology.induced (Topology.ring 4) [] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_induced_duplicates_ignored () =
  let t = Topology.induced (Topology.ring 8) [ 0; 0; 1; 1; 2 ] in
  check "deduplicated" 3 (Topology.n_processors t)

let test_induced_scheduling_budget () =
  (* A processor budget can only lengthen schedules. *)
  let g = Workloads.Examples.fig7 in
  let full = Topology.complete 8 in
  let half = Topology.induced full [ 0; 1; 2; 3 ] in
  let len t = Schedule.length (Cyclo.Compaction.run_on g t).Cyclo.Compaction.best in
  check_bool "budget >= full" true (len half >= len full);
  check_bool "legal" true
    (Cyclo.Validator.is_legal
       (Cyclo.Compaction.run_on g half).Cyclo.Compaction.best)

(* ------------------------------------------------------------------ *)
(* File round trips                                                     *)
(* ------------------------------------------------------------------ *)

let test_io_file_roundtrip () =
  let path = Filename.temp_file "csdfg" ".csdfg" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Cyclo.Export.write_file ~path (Dataflow.Io.to_string fig1b);
      match Dataflow.Io.read_file ~path with
      | Error e -> Alcotest.fail (Dataflow.Io.error_to_string e)
      | Ok g ->
          Alcotest.(check string)
            "identical text" (Dataflow.Io.to_string fig1b)
            (Dataflow.Io.to_string g))

let test_io_read_missing_file () =
  check_bool "missing file is an Error" true
    (Result.is_error (Dataflow.Io.read_file ~path:"/nonexistent/x.csdfg"))

let test_export_write_file () =
  let path = Filename.temp_file "sched" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let s = Cyclo.Startup.run_on fig1b (paper_mesh ()) in
      Cyclo.Export.write_file ~path (Cyclo.Export.to_csv s);
      let ic = open_in path in
      let first = input_line ic in
      let second = input_line ic in
      close_in ic;
      Alcotest.(check string) "length comment" "# length=7" first;
      Alcotest.(check string) "header" "node,label,cb,ce,pe" second)

(* ------------------------------------------------------------------ *)
(* Metrics                                                              *)
(* ------------------------------------------------------------------ *)

let test_metrics_utilization () =
  let s = Cyclo.Startup.run_on fig1b (Topology.linear_array 1) in
  (* sequential on one processor: fully busy *)
  Alcotest.(check (float 1e-9)) "utilization" 1.0 (Cyclo.Metrics.utilization s);
  check "one processor used" 1 (Cyclo.Metrics.processors_used s);
  Alcotest.(check (float 1e-9)) "speedup 1" 1.0
    (Cyclo.Metrics.speedup_vs_sequential s)

let test_metrics_comm_cost () =
  (* single processor: nothing crosses *)
  let seq = Cyclo.Startup.run_on fig1b (Topology.linear_array 1) in
  check "no cross edges" 0 (Cyclo.Metrics.cross_edges seq);
  check "no comm" 0 (Cyclo.Metrics.comm_cost_per_iteration seq);
  Alcotest.(check (float 1e-9)) "ratio 0" 0.0 (Cyclo.Metrics.comm_ratio seq);
  (* hand placement: A on pe1, C on pe3 of the paper mesh (2 hops) *)
  let s =
    Schedule.empty fig1b (Cyclo.Comm.of_topology (paper_mesh ()))
  in
  let s = Schedule.assign s ~node:(Csdfg.node_of_label fig1b "A") ~cb:1 ~pe:0 in
  let s = Schedule.assign s ~node:(Csdfg.node_of_label fig1b "C") ~cb:4 ~pe:2 in
  check "one cross edge among assigned" 1 (Cyclo.Metrics.cross_edges s);
  (* A -> C has volume 1 over 2 hops *)
  check "comm cost" 2 (Cyclo.Metrics.comm_cost_per_iteration s)

let test_metrics_aware_pays_less_comm () =
  (* The headline quantification behind bench A2. *)
  let g = Workloads.Examples.fig7 in
  let topo = Topology.linear_array 8 in
  let aware = (Cyclo.Compaction.run_on g topo).Cyclo.Compaction.best in
  let oblivious = Cyclo.Baseline.rotation_oblivious g topo in
  check_bool "aware pays less communication" true
    (Cyclo.Metrics.comm_cost_per_iteration aware
    < Cyclo.Metrics.comm_cost_per_iteration oblivious)

let test_metrics_on_compacted () =
  let r = Cyclo.Compaction.run_on fig1b (paper_mesh ()) in
  let best = r.Cyclo.Compaction.best in
  check_bool "several processors" true (Cyclo.Metrics.processors_used best >= 2);
  check_bool "speedup above 2" true
    (Cyclo.Metrics.speedup_vs_sequential best > 2.0);
  Alcotest.(check (option int)) "at the iteration bound"
    (Some (Schedule.length best))
    (Dataflow.Iteration_bound.exact_ceil fig1b);
  Alcotest.(check (float 1e-9)) "improvement"
    (100. *. (7. -. 3.) /. 7.)
    (Cyclo.Metrics.improvement ~before:r.Cyclo.Compaction.startup ~after:best)

(* ------------------------------------------------------------------ *)
(* Pqueue                                                               *)
(* ------------------------------------------------------------------ *)

let test_pqueue_orders () =
  let q = Digraph.Pqueue.of_list [ (5, "e"); (1, "a"); (3, "c"); (2, "b") ] in
  let rec drain q acc =
    match Digraph.Pqueue.pop q with
    | None -> List.rev acc
    | Some ((k, v), rest) -> drain rest ((k, v) :: acc)
  in
  Alcotest.(check (list (pair int string)))
    "sorted"
    [ (1, "a"); (2, "b"); (3, "c"); (5, "e") ]
    (drain q [])

let test_pqueue_size_and_empty () =
  check "size" 3 (Digraph.Pqueue.size (Digraph.Pqueue.of_list [ (1, ()); (2, ()); (3, ()) ]));
  check_bool "empty" true (Digraph.Pqueue.is_empty Digraph.Pqueue.empty);
  check_bool "pop empty" true (Digraph.Pqueue.pop Digraph.Pqueue.empty = None)

let test_pqueue_duplicate_keys () =
  let q = Digraph.Pqueue.of_list [ (1, "x"); (1, "y"); (0, "z") ] in
  match Digraph.Pqueue.pop q with
  | Some ((0, "z"), rest) ->
      let keys =
        let rec go q acc =
          match Digraph.Pqueue.pop q with
          | None -> List.rev acc
          | Some ((k, _), rest) -> go rest (k :: acc)
        in
        go rest []
      in
      Alcotest.(check (list int)) "both ones" [ 1; 1 ] keys
  | _ -> Alcotest.fail "min first"

let () =
  Alcotest.run "extensions"
    [
      ( "pipeline",
        [
          Alcotest.test_case "build" `Quick test_pipeline_build;
          Alcotest.test_case "prologue range" `Quick
            test_pipeline_prologue_iterations_in_range;
          Alcotest.test_case "epilogue counts" `Quick test_pipeline_epilogue_counts;
          Alcotest.test_case "overhead vanishes" `Quick
            test_pipeline_overhead_vanishes;
        ] );
      ( "exhaustive",
        [
          Alcotest.test_case "lower bound" `Quick test_lower_bound;
          Alcotest.test_case "tiny chain optimal" `Quick test_exhaustive_tiny_chain;
          Alcotest.test_case "self loop" `Quick
            test_exhaustive_matches_bound_on_self_loop;
          Alcotest.test_case "startup >= optimal" `Quick
            test_startup_vs_optimal_on_small_graphs;
          Alcotest.test_case "fig1b gap" `Quick test_optimality_gap_fig1b;
          Alcotest.test_case "sharded budget deterministic" `Quick
            test_sharded_budget_deterministic;
        ] );
      ( "export",
        [
          Alcotest.test_case "csv" `Quick test_csv;
          Alcotest.test_case "csv roundtrip" `Quick test_csv_roundtrip;
          Alcotest.test_case "csv import errors" `Quick test_csv_import_errors;
          Alcotest.test_case "json" `Quick test_json;
          Alcotest.test_case "gantt" `Quick test_gantt;
          Alcotest.test_case "gantt unrolled" `Quick test_gantt_unrolled;
          Alcotest.test_case "svg" `Quick test_svg;
        ] );
      ( "weighted-topology",
        [
          Alcotest.test_case "distances" `Quick test_weighted_distances;
          Alcotest.test_case "bad latency" `Quick test_weighted_rejects_bad_latency;
          Alcotest.test_case "route" `Quick test_weighted_route_follows_cheap_path;
          Alcotest.test_case "unit unchanged" `Quick test_unit_links_unchanged;
          Alcotest.test_case "scheduling" `Quick test_scheduling_on_weighted_topology;
        ] );
      ( "induced",
        [
          Alcotest.test_case "basic" `Quick test_induced_basic;
          Alcotest.test_case "renumbering" `Quick test_induced_renumbers;
          Alcotest.test_case "disconnected" `Quick
            test_induced_disconnected_rejected;
          Alcotest.test_case "empty" `Quick test_induced_empty_rejected;
          Alcotest.test_case "duplicates" `Quick test_induced_duplicates_ignored;
          Alcotest.test_case "processor budget" `Quick
            test_induced_scheduling_budget;
        ] );
      ( "files",
        [
          Alcotest.test_case "csdfg roundtrip" `Quick test_io_file_roundtrip;
          Alcotest.test_case "missing file" `Quick test_io_read_missing_file;
          Alcotest.test_case "export write" `Quick test_export_write_file;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "sequential utilization" `Quick
            test_metrics_utilization;
          Alcotest.test_case "compacted metrics" `Quick test_metrics_on_compacted;
          Alcotest.test_case "comm cost" `Quick test_metrics_comm_cost;
          Alcotest.test_case "aware pays less" `Quick
            test_metrics_aware_pays_less_comm;
        ] );
      ( "pqueue",
        [
          Alcotest.test_case "orders" `Quick test_pqueue_orders;
          Alcotest.test_case "size/empty" `Quick test_pqueue_size_and_empty;
          Alcotest.test_case "duplicate keys" `Quick test_pqueue_duplicate_keys;
        ] );
    ]
