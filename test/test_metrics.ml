(* Metrics against hand-computed values, plus the CSV round-trip.

   The fig7 / mesh-2x4 start-up table is rebuilt assignment by
   assignment from the golden signature and every metric is checked
   against numbers worked out by hand from the paper's figure: total
   computation 24 over 13 x 8 cells, 7 cross-processor edges costing
   1+2+1+1+1+1+1 = 8 steps per iteration, iteration bound 4.  The CSV
   round-trip is a QCheck property over random connected graphs. *)

module Csdfg = Dataflow.Csdfg
module Schedule = Cyclo.Schedule
module Comm = Cyclo.Comm
module Metrics = Cyclo.Metrics
module Export = Cyclo.Export

let fig7 () =
  match Dataflow.Io.read_file ~path:"../data/fig7.csdfg" with
  | Ok g -> g
  | Error e -> Alcotest.fail (Dataflow.Io.error_to_string e)

(* The golden start-up schedule of fig7 on the 2x4 mesh
   (test_golden_signatures.ml), as (label, cb, pe) triples. *)
let fig7_startup_table =
  [
    ("A", 1, 0); ("B", 2, 0); ("C", 3, 1); ("D", 4, 4); ("E", 6, 5);
    ("F", 5, 4); ("G", 4, 0); ("H", 3, 0); ("I", 6, 0); ("J", 7, 4);
    ("K", 7, 0); ("L", 9, 4); ("M", 7, 5); ("N", 8, 0); ("O", 9, 0);
    ("P", 10, 0); ("Q", 11, 4); ("R", 8, 5); ("S", 13, 4);
  ]

let node_by_label g label =
  match List.find_opt (fun v -> Csdfg.label g v = label) (Csdfg.nodes g) with
  | Some v -> v
  | None -> Alcotest.fail ("no node " ^ label)

let hand_built_startup () =
  let g = fig7 () in
  let comm = Comm.of_topology (Topology.mesh ~rows:2 ~cols:4) in
  let sched =
    List.fold_left
      (fun s (label, cb, pe) ->
        Schedule.assign s ~node:(node_by_label g label) ~cb ~pe)
      (Schedule.empty g comm) fig7_startup_table
  in
  Schedule.set_length sched 13

let feps = Alcotest.float 1e-9

let test_fig7_hand_computed () =
  let s = hand_built_startup () in
  (* sanity: the hand-built table is what the scheduler produces *)
  Alcotest.(check string)
    "hand-built table matches the golden signature"
    (Schedule.signature
       (Cyclo.Startup.run_on (fig7 ()) (Topology.mesh ~rows:2 ~cols:4)))
    (Schedule.signature s);
  (* total computation 24 over 13 steps x 8 processors = 104 cells *)
  Alcotest.check feps "utilization 24/104" (24. /. 104.)
    (Metrics.utilization s);
  Alcotest.(check int) "4 processors used" 4 (Metrics.processors_used s);
  Alcotest.check feps "speedup 24/13" (24. /. 13.)
    (Metrics.speedup_vs_sequential s);
  (* cross edges: P->S and S->A (1 hop x 1), A->D (1 hop x 2), A->C,
     C->I, D->E, R->S (1 hop x 1 each) — 7 edges, 8 steps *)
  Alcotest.(check int) "7 cross edges" 7 (Metrics.cross_edges s);
  Alcotest.(check int) "comm cost 8/iteration" 8
    (Metrics.comm_cost_per_iteration s);
  Alcotest.check feps "comm ratio 8/24" (8. /. 24.) (Metrics.comm_ratio s);
  (* iteration bound: critical cycle A B H G I K N O P S over S->A's
     3 delays: ceil(11/3) = 4 *)
  Alcotest.(check (option int)) "iteration bound 4" (Some 4)
    (Dataflow.Iteration_bound.exact_ceil (fig7 ()))

(* A two-node chain placed by hand on a 2-processor machine: every
   metric is small enough to read off directly. *)
let test_tiny_hand_computed () =
  let g =
    match
      Dataflow.Io.of_string "csdfg tiny\nnode A 1\nnode B 1\nedge A B 0 1\n"
    with
    | Ok g -> g
    | Error e -> Alcotest.fail (Dataflow.Io.error_to_string e)
  in
  let comm = Comm.of_topology (Topology.complete 2) in
  let s =
    Schedule.empty g comm
    |> (fun s -> Schedule.assign s ~node:(node_by_label g "A") ~cb:1 ~pe:0)
    |> (fun s -> Schedule.assign s ~node:(node_by_label g "B") ~cb:3 ~pe:1)
  in
  let s = Schedule.set_length s 3 in
  Alcotest.check feps "utilization 2/6" (2. /. 6.) (Metrics.utilization s);
  Alcotest.(check int) "both processors used" 2 (Metrics.processors_used s);
  Alcotest.(check int) "one cross edge" 1 (Metrics.cross_edges s);
  Alcotest.(check int) "comm cost 1" 1 (Metrics.comm_cost_per_iteration s);
  Alcotest.check feps "comm ratio 1/2" 0.5 (Metrics.comm_ratio s);
  Alcotest.(check (option int)) "acyclic: no bound" None
    (Dataflow.Iteration_bound.exact_ceil g);
  let shorter = Schedule.set_length s 3 in
  Alcotest.check feps "improvement 0 vs itself" 0.
    (Metrics.improvement ~before:s ~after:shorter)

let test_improvement () =
  let s = hand_built_startup () in
  let best =
    (Cyclo.Compaction.run_on ~validate:false (fig7 ())
       (Topology.mesh ~rows:2 ~cols:4))
      .Cyclo.Compaction.best
  in
  (* 13 -> 6: (13 - 6) / 13 *)
  Alcotest.(check int) "compacted length" 6 (Schedule.length best);
  Alcotest.check feps "improvement (13-6)/13 %" (100. *. 7. /. 13.)
    (Metrics.improvement ~before:s ~after:best)

(* ------------------------------------------------------------------ *)
(* CSV round-trip property                                              *)
(* ------------------------------------------------------------------ *)

let small_params =
  { Workloads.Random_gen.default with nodes = 8; feedback_edges = 2 }

let architectures =
  [|
    Topology.linear_array 4;
    Topology.ring 5;
    Topology.complete 4;
    Topology.mesh ~rows:2 ~cols:3;
  |]

let prop_csv_round_trip =
  QCheck.Test.make ~count:100 ~name:"to_csv / of_csv round-trips"
    QCheck.(pair (int_range 0 10_000) (int_range 0 10_000))
    (fun (gseed, aseed) ->
      let g =
        Workloads.Random_gen.generate_connected ~params:small_params
          ~seed:gseed ()
      in
      let topo = architectures.(abs aseed mod Array.length architectures) in
      let comm = Comm.of_topology topo in
      let sched = Cyclo.Startup.run g comm in
      match Export.of_csv g comm (Export.to_csv sched) with
      | Error e -> QCheck.Test.fail_report e
      | Ok back ->
          Schedule.compare_assignments sched back = 0
          && Schedule.signature sched = Schedule.signature back)

let () =
  Alcotest.run "metrics"
    [
      ( "hand-computed",
        [
          Alcotest.test_case "fig7 startup on mesh-2x4" `Quick
            test_fig7_hand_computed;
          Alcotest.test_case "two-node chain" `Quick test_tiny_hand_computed;
          Alcotest.test_case "improvement 13 -> 6" `Quick test_improvement;
        ] );
      ( "export",
        [ QCheck_alcotest.to_alcotest ~long:false prop_csv_round_trip ] );
    ]
