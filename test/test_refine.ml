(* Local-search refinement: legality of every accepted move, monotone
   best tracking, determinism, and the alternation driver. *)

module Schedule = Cyclo.Schedule
module Refine = Cyclo.Refine
module Compaction = Cyclo.Compaction

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let compacted g topo = (Compaction.run_on g topo).Compaction.best

let test_never_worse () =
  List.iter
    (fun (name, g) ->
      let best = compacted g (Topology.mesh ~rows:2 ~cols:2) in
      let r = Refine.run best in
      Alcotest.(check bool)
        (name ^ ": refined <= input")
        true
        (Schedule.length r.Refine.best <= Schedule.length best);
      Alcotest.(check bool)
        (name ^ ": legal")
        true
        (Cyclo.Validator.is_legal r.Refine.best))
    [
      ("fig1b", Workloads.Examples.fig1b);
      ("fig7", Workloads.Examples.fig7);
      ("diffeq", Workloads.Dsp.diffeq);
    ]

let test_deterministic () =
  let best = compacted Workloads.Examples.fig7 (Topology.ring 4) in
  let a = Refine.run ~seed:7 best in
  let b = Refine.run ~seed:7 best in
  check "same outcome" 0 (Schedule.compare_assignments a.Refine.best b.Refine.best);
  check "same acceptance count" a.Refine.moves_accepted b.Refine.moves_accepted

let test_move_budget_zero_is_identity () =
  let best = compacted Workloads.Examples.fig7 (Topology.ring 4) in
  let r = Refine.run ~moves:0 best in
  check "tried none" 0 r.Refine.moves_tried;
  check "unchanged" 0 (Schedule.compare_assignments r.Refine.best r.Refine.initial)

let test_counts_consistent () =
  let best = compacted Workloads.Examples.fig7 (Topology.mesh ~rows:2 ~cols:4) in
  let r = Refine.run best in
  check_bool "accepted <= tried" true
    (r.Refine.moves_accepted <= r.Refine.moves_tried);
  check_bool "improvements <= accepted" true
    (r.Refine.improvements <= r.Refine.moves_accepted)

let test_refine_can_improve_bad_schedule () =
  (* Start from a deliberately wasteful but legal placement: everything
     sequential on one processor of a 4-processor crossbar; local moves
     must find improvements. *)
  let g = Workloads.Examples.two_independent_chains in
  let comm = Cyclo.Comm.zero ~n:4 ~name:"z" in
  let sequential =
    List.fold_left
      (fun (s, cb) v ->
        (Schedule.assign s ~node:v ~cb ~pe:0, cb + Dataflow.Csdfg.time g v))
      (Schedule.empty g comm, 1)
      (Dataflow.Csdfg.nodes g)
    |> fst
  in
  let sequential =
    Schedule.set_length sequential (Cyclo.Timing.required_length sequential)
  in
  check "sequential length" 6 (Schedule.length sequential);
  let r = Refine.run ~moves:2000 sequential in
  check_bool "found improvements" true (r.Refine.improvements > 0);
  check_bool "strictly shorter" true (Schedule.length r.Refine.best < 6);
  check_bool "legal" true (Cyclo.Validator.is_legal r.Refine.best)

let test_resume_continues () =
  let g = Workloads.Examples.fig7 in
  let topo = Topology.mesh ~rows:2 ~cols:4 in
  let first = Compaction.run_on ~passes:2 g topo in
  let resumed = Compaction.resume first.Compaction.best in
  check_bool "resume never worse" true
    (Schedule.length resumed.Compaction.best
    <= Schedule.length first.Compaction.best);
  check_bool "legal" true (Cyclo.Validator.is_legal resumed.Compaction.best)

let test_alternate_never_worse_than_compaction () =
  List.iter
    (fun (name, g, topo) ->
      let plain = Compaction.run_on g topo in
      let alt = Refine.alternate g (Cyclo.Comm.of_topology topo) in
      Alcotest.(check bool)
        (name ^ ": alternate <= compaction")
        true
        (Schedule.length alt <= Schedule.length plain.Compaction.best);
      Alcotest.(check bool) (name ^ ": legal") true (Cyclo.Validator.is_legal alt))
    [
      ("fig1b", Workloads.Examples.fig1b, Topology.complete 4);
      ("iir", Workloads.Dsp.iir_biquad, Topology.ring 4);
    ]

let test_polish () =
  let g = Workloads.Examples.fig7 in
  let r = Compaction.run_on g (Topology.hypercube 3) in
  let polished = Refine.polish r in
  check_bool "polish <= best" true
    (Schedule.length polished <= Schedule.length r.Compaction.best)

(* `ccsched autotune`: the four (mode, scoring) searches, each result
   polished by local search. *)
let autotune ?domains g topo =
  Cyclo.Portfolio.(polish (run_on ~k:4 ?domains g topo))

let test_autotune_never_worse_than_any_config () =
  let g = Workloads.Examples.fig7 in
  let topo = Topology.mesh ~rows:2 ~cols:4 in
  let best = Cyclo.Portfolio.best (autotune g topo) in
  check_bool "legal" true (Cyclo.Validator.is_legal best);
  List.iter
    (fun (mode, scoring) ->
      let r = Compaction.run_on ~mode ~scoring g topo in
      Alcotest.(check bool)
        "winner <= every configuration" true
        (Schedule.length best <= Schedule.length r.Compaction.best))
    [
      (Cyclo.Remap.With_relaxation, Cyclo.Remap.Pressure_first);
      (Cyclo.Remap.With_relaxation, Cyclo.Remap.Earliest_step);
      (Cyclo.Remap.Without_relaxation, Cyclo.Remap.Pressure_first);
      (Cyclo.Remap.Without_relaxation, Cyclo.Remap.Earliest_step);
    ]

let test_autotune_table_sorted () =
  let t = autotune Workloads.Dsp.diffeq (Topology.ring 4) in
  check "four configurations" 4 (List.length t.Cyclo.Portfolio.members);
  let lengths =
    List.map
      (fun m -> Schedule.length m.Cyclo.Portfolio.result.Compaction.best)
      t.Cyclo.Portfolio.members
  in
  check_bool "sorted ascending" true (List.sort compare lengths = lengths);
  check "winner is the head" (List.hd lengths)
    (Schedule.length (Cyclo.Portfolio.best t))

let test_autotune_parallel_equals_sequential () =
  let g = Workloads.Dsp.iir_biquad in
  let topo = Topology.mesh ~rows:2 ~cols:2 in
  let a = Cyclo.Portfolio.best (autotune ~domains:2 g topo) in
  let b = Cyclo.Portfolio.best (autotune ~domains:1 g topo) in
  check "same winner length" (Schedule.length b) (Schedule.length a);
  Alcotest.(check string)
    "same winner" (Schedule.signature b) (Schedule.signature a)

let test_incomplete_rejected () =
  let g = Workloads.Examples.fig1b in
  let s = compacted g (Topology.complete 4) in
  let s = Schedule.unassign s 0 in
  check_bool "raises" true
    (match Refine.run s with
    | exception Invalid_argument _ -> true
    | _ -> false)

let () =
  Alcotest.run "refine"
    [
      ( "local-search",
        [
          Alcotest.test_case "never worse" `Quick test_never_worse;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "zero budget" `Quick test_move_budget_zero_is_identity;
          Alcotest.test_case "counters" `Quick test_counts_consistent;
          Alcotest.test_case "improves bad schedules" `Quick
            test_refine_can_improve_bad_schedule;
          Alcotest.test_case "incomplete rejected" `Quick test_incomplete_rejected;
        ] );
      ( "autotune",
        [
          Alcotest.test_case "never worse than any config" `Quick
            test_autotune_never_worse_than_any_config;
          Alcotest.test_case "table sorted" `Quick test_autotune_table_sorted;
          Alcotest.test_case "parallel = sequential" `Quick
            test_autotune_parallel_equals_sequential;
        ] );
      ( "alternation",
        [
          Alcotest.test_case "resume" `Quick test_resume_continues;
          Alcotest.test_case "never worse" `Quick
            test_alternate_never_worse_than_compaction;
          Alcotest.test_case "polish" `Quick test_polish;
        ] );
    ]
