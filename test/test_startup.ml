(* Tests for the start-up (communication-aware list) scheduler, including
   an exact reproduction of the paper's Figure 6(b). *)

module Csdfg = Dataflow.Csdfg
module Schedule = Cyclo.Schedule
module Comm = Cyclo.Comm
module Startup = Cyclo.Startup
module Validator = Cyclo.Validator
module Priority = Cyclo.Priority

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let fig1b = Workloads.Examples.fig1b

let paper_mesh () =
  Topology.relabel (Topology.mesh ~rows:2 ~cols:2)
    Workloads.Examples.fig1_mesh_permutation

let node g l = Csdfg.node_of_label g l

(* The per-node CE array [Priority] reads placements through: 0 for an
   unplaced node. *)
let ce_of s =
  Array.init
    (Csdfg.n_nodes (Schedule.dfg s))
    (fun v -> if Schedule.is_assigned s v then Schedule.ce s v else 0)

(* ------------------------------------------------------------------ *)
(* Figure 6(b): the paper's initial schedule, cell by cell              *)
(* ------------------------------------------------------------------ *)

let test_fig6b_exact () =
  let s = Startup.run_on fig1b (paper_mesh ()) in
  let expect l cb pe =
    check (l ^ " cb") cb (Schedule.cb s (node fig1b l));
    check (l ^ " pe") pe (Schedule.pe s (node fig1b l))
  in
  check "length 7" 7 (Schedule.length s);
  expect "A" 1 0;
  expect "B" 2 0;
  expect "C" 3 1;
  (* C deferred to cs3 on PE2 by the A->C communication *)
  expect "D" 4 0;
  expect "E" 5 0;
  expect "F" 7 0

let test_fig6b_valid () =
  let s = Startup.run_on fig1b (paper_mesh ()) in
  check_bool "validator" true (Validator.is_legal s);
  check_bool "simulation" true (Validator.simulate s ~iterations:6 = Ok ())

(* ------------------------------------------------------------------ *)
(* Priority function behaviour (Definition 3.6)                         *)
(* ------------------------------------------------------------------ *)

let test_pf_prefers_critical_node () =
  (* At cs2 with A scheduled, B (mobility 0) outranks C (mobility 1). *)
  let pr = Priority.create fig1b in
  let s =
    Schedule.assign
      (Schedule.empty fig1b (Comm.of_topology (paper_mesh ())))
      ~node:(node fig1b "A") ~cb:1 ~pe:0
  in
  let ce = ce_of s in
  let pf_b = Priority.pf pr ~ce ~cs:2 (node fig1b "B") in
  let pf_c = Priority.pf pr ~ce ~cs:2 (node fig1b "C") in
  check "PF(B)" 1 pf_b;
  check "PF(C)" 0 pf_c;
  Alcotest.(check (list int)) "sorted"
    [ node fig1b "B"; node fig1b "C" ]
    (Priority.sort_ready pr ~ce ~cs:2 [ node fig1b "C"; node fig1b "B" ])

let test_pf_rises_with_waiting_time () =
  (* The longer a producer has been finished, the more volume boosts the
     consumer... the (cs - CE - 1) term *reduces* PF as time passes. *)
  let pr = Priority.create fig1b in
  let s =
    Schedule.assign
      (Schedule.empty fig1b (Comm.of_topology (paper_mesh ())))
      ~node:(node fig1b "A") ~cb:1 ~pe:0
  in
  let at cs = Priority.pf pr ~ce:(ce_of s) ~cs (node fig1b "C") in
  check_bool "later steps lower priority" true (at 4 < at 2)

let test_pf_root_is_negative_mobility () =
  let pr = Priority.create fig1b in
  let s = Schedule.empty fig1b (Comm.of_topology (paper_mesh ())) in
  check "root A" 0 (Priority.pf pr ~ce:(ce_of s) ~cs:1 (node fig1b "A"))

(* The sweep keeps its ready queue sorted by Priority.sort_key instead
   of re-sorting with sort_ready every control step; the two must induce
   the same order for every strategy, schedule state and step. *)
let test_sort_key_matches_sort_ready =
  QCheck.Test.make ~count:100 ~name:"sort_key order = sort_ready order"
    QCheck.(triple (0 -- 49) (1 -- 30) (0 -- 100))
    (fun (seed, cs, keep) ->
      let g = Workloads.Random_gen.generate ~seed () in
      let full = Startup.run_on g (Topology.linear_array 3) in
      (* unassign a suffix so ready nodes see a mix of assigned and
         unassigned zero-delay predecessors *)
      let nodes = Csdfg.nodes g in
      let cut = keep mod (List.length nodes + 1) in
      let s =
        Schedule.unassign_all full
          (List.filteri (fun i _ -> i >= cut) nodes)
      in
      let pr = Priority.create g in
      let ce = ce_of s in
      let ready = List.filter (fun v -> not (Schedule.is_assigned s v)) nodes in
      List.for_all
        (fun strategy ->
          let score v =
            match Priority.sort_key strategy pr ~ce v with
            | Priority.Affine k -> k - cs
            | Priority.Const k -> k
          in
          let keyed =
            List.stable_sort
              (fun a b ->
                match compare (score b) (score a) with
                | 0 -> compare a b
                | c -> c)
              ready
          in
          keyed = Priority.sort_ready ~strategy pr ~ce ~cs ready)
        [ Priority.Pf; Priority.Static_level; Priority.Mobility_only;
          Priority.Fifo ])

(* ------------------------------------------------------------------ *)
(* Behaviour across communication regimes                               *)
(* ------------------------------------------------------------------ *)

let test_zero_comm_parallelizes () =
  (* Without communication costs C runs in parallel with B, giving the
     critical-path-length schedule (6). *)
  let s = Startup.run fig1b (Comm.zero ~n:4 ~name:"z") in
  check "length = critical path" 6 (Schedule.length s);
  check_bool "C in parallel with B" true
    (Schedule.cb s (node fig1b "C") <= 3);
  check_bool "valid" true (Validator.is_legal s)

let test_single_processor_is_sequential () =
  let s = Startup.run_on fig1b (Topology.linear_array 1) in
  check "length = total time" (Csdfg.total_time fig1b) (Schedule.length s);
  check_bool "valid" true (Validator.is_legal s)

let test_more_processors_never_worse_on_complete () =
  let len n = Schedule.length (Startup.run_on fig1b (Topology.complete n)) in
  check_bool "2 <= 1" true (len 2 <= len 1);
  check_bool "4 <= 2" true (len 4 <= len 2)

let test_expensive_comm_keeps_one_processor () =
  (* When every hop costs a lot, the scheduler should not spread work. *)
  let comm = Comm.scaled (Topology.complete 4) ~factor:50 in
  let s = Startup.run fig1b comm in
  check "degenerates to sequential" (Csdfg.total_time fig1b)
    (Schedule.length s);
  check "one processor" 1 (Cyclo.Metrics.processors_used s)

let test_psl_padding () =
  (* two-chains on 2 processors: each chain fits its own processor; the
     feedback edges are same-processor so no padding is needed — but on a
     schedule where a delayed edge crosses processors the length grows.
     Use the correlator whose acc1 -> x edge crosses. *)
  let g = Workloads.Examples.two_independent_chains in
  let s = Startup.run_on g (Topology.linear_array 2) in
  check_bool "legal with PSL padding" true (Validator.is_legal s);
  check_bool "length >= rows" true
    (Schedule.length s >= Schedule.rows_needed s)

let test_illegal_input_rejected () =
  let bad =
    Csdfg.make ~name:"bad" ~nodes:[ ("A", 1); ("B", 1) ]
      ~edges:[ ("A", "B", 0, 1); ("B", "A", 0, 1) ]
  in
  check_bool "raises" true
    (match Startup.run_on bad (Topology.complete 2) with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* The zero-delay cycle is found by start-up's own topological sort; the
   error is the one callers have always matched on. *)
let test_zero_delay_cycle_message () =
  let bad =
    Csdfg.make ~name:"bad" ~nodes:[ ("A", 1); ("B", 2); ("C", 1) ]
      ~edges:[ ("A", "B", 0, 1); ("B", "C", 0, 1); ("C", "B", 0, 2) ]
  in
  Alcotest.check_raises "illegal CSDFG"
    (Invalid_argument "Startup.run: illegal CSDFG") (fun () ->
      ignore (Startup.run_on bad (Topology.complete 2)))

let test_all_workloads_valid_everywhere () =
  let architectures =
    [
      Topology.linear_array 8;
      Topology.ring 8;
      Topology.complete 8;
      Topology.mesh ~rows:2 ~cols:4;
      Topology.hypercube 3;
    ]
  in
  List.iter
    (fun (name, g) ->
      List.iter
        (fun topo ->
          let s = Startup.run_on g topo in
          Alcotest.(check bool)
            (Printf.sprintf "%s on %s" name (Topology.name topo))
            true (Validator.is_legal s))
        architectures)
    (Workloads.Suite.all ())

let test_priority_strategies_all_legal () =
  List.iter
    (fun strategy ->
      List.iter
        (fun (name, g) ->
          let s =
            Startup.run_on ~priority_strategy:strategy g (Topology.ring 4)
          in
          Alcotest.(check bool)
            (Fmt.str "%s under %a" name Priority.pp_strategy strategy)
            true (Validator.is_legal s))
        [ ("fig1b", fig1b); ("fig7", Workloads.Examples.fig7) ])
    [ Priority.Pf; Priority.Static_level; Priority.Mobility_only;
      Priority.Fifo ]

let test_static_level_values () =
  let pr = Priority.create fig1b in
  let idx l = node fig1b l in
  (* level = longest zero-delay path from the node, inclusive *)
  check "level F" 1 (Priority.static_level pr (idx "F"));
  check "level E" 3 (Priority.static_level pr (idx "E"));
  check "level A" 6 (Priority.static_level pr (idx "A"));
  check "level D" 2 (Priority.static_level pr (idx "D"))

let test_pf_default_unchanged () =
  let s1 = Startup.run_on fig1b (paper_mesh ()) in
  let s2 = Startup.run_on ~priority_strategy:Priority.Pf fig1b (paper_mesh ()) in
  check "explicit Pf = default" 0 (Schedule.compare_assignments s1 s2)

let test_deterministic () =
  let s1 = Startup.run_on fig1b (paper_mesh ()) in
  let s2 = Startup.run_on fig1b (paper_mesh ()) in
  check "same result" 0 (Schedule.compare_assignments s1 s2)

(* With the journal on, the sweep probes every ready node at every step
   (each rejection is an event); with it off, it skips the steps where
   every processor is busy.  Both runs must build the same schedule.
   Returns the two signatures and the steps the off run skipped. *)
let journal_on_off ~nodes ~np ~seed =
  let g = Workloads.Random_gen.layered ~max_time:8 ~nodes ~seed () in
  let topo = Topology.linear_array np in
  let run () = Schedule.signature (Startup.run_on g topo) in
  Obs.Counters.enable ();
  Obs.Counters.reset ();
  let off = run () in
  let skipped =
    Obs.Counters.value (Obs.Counters.counter "startup.steps_skipped")
  in
  Obs.Counters.disable ();
  Obs.Journal.enable ();
  let on = run () in
  Obs.Journal.disable ();
  Obs.Journal.reset ();
  (off, on, skipped)

(* Whether a draw keeps every processor busy long enough to skip a step
   depends on its shape, so the property checks on = off only. *)
let test_journal_on_equals_off =
  QCheck.Test.make ~count:6
    ~name:"journal on = off on busy machines (layered, 2-8 PEs)"
    QCheck.(
      make
        ~print:Print.(triple int int int)
        Gen.(triple (int_range 200 2000) (int_range 2 8) (int_range 0 10_000)))
    (fun (nodes, np, seed) ->
      let off, on, _ = journal_on_off ~nodes ~np ~seed in
      String.equal off on)

(* Two processors under 2,000 nodes of up to 8 steps each are saturated,
   so the off run must take the skip. *)
let test_journal_off_skips_on_saturated_machine () =
  let off, on, skipped = journal_on_off ~nodes:2000 ~np:2 ~seed:0 in
  check_bool "steps skipped" true (skipped > 0);
  Alcotest.(check string) "journal on = off" off on

(* Draws that never keep every processor busy, so nothing is skipped;
   the schedules must still agree. *)
let test_journal_on_equals_off_unsaturated () =
  List.iter
    (fun (nodes, np, seed) ->
      let off, on, skipped = journal_on_off ~nodes ~np ~seed in
      let label = Printf.sprintf "%d nodes, %d PEs, seed %d" nodes np seed in
      check (label ^ ": nothing skipped") 0 skipped;
      Alcotest.(check string) (label ^ ": journal on = off") off on)
    [ (294, 8, 8498); (253, 7, 8149); (589, 8, 6955) ]

let () =
  Alcotest.run "startup"
    [
      ( "paper-fig6b",
        [
          Alcotest.test_case "exact table" `Quick test_fig6b_exact;
          Alcotest.test_case "valid" `Quick test_fig6b_valid;
        ] );
      ( "priority",
        [
          Alcotest.test_case "critical first" `Quick test_pf_prefers_critical_node;
          Alcotest.test_case "decays over time" `Quick test_pf_rises_with_waiting_time;
          Alcotest.test_case "root" `Quick test_pf_root_is_negative_mobility;
          QCheck_alcotest.to_alcotest test_sort_key_matches_sort_ready;
        ] );
      ( "behaviour",
        [
          Alcotest.test_case "zero comm" `Quick test_zero_comm_parallelizes;
          Alcotest.test_case "single processor" `Quick
            test_single_processor_is_sequential;
          Alcotest.test_case "monotone in processors" `Quick
            test_more_processors_never_worse_on_complete;
          Alcotest.test_case "expensive comm" `Quick
            test_expensive_comm_keeps_one_processor;
          Alcotest.test_case "psl padding" `Quick test_psl_padding;
          Alcotest.test_case "illegal input" `Quick test_illegal_input_rejected;
          Alcotest.test_case "zero-delay cycle message" `Quick
            test_zero_delay_cycle_message;
          Alcotest.test_case "all workloads x architectures" `Quick
            test_all_workloads_valid_everywhere;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          QCheck_alcotest.to_alcotest test_journal_on_equals_off;
          Alcotest.test_case "journal off skips on a saturated machine" `Quick
            test_journal_off_skips_on_saturated_machine;
          Alcotest.test_case "journal on = off, nothing skipped" `Quick
            test_journal_on_equals_off_unsaturated;
        ] );
      ( "strategies",
        [
          Alcotest.test_case "all legal" `Quick test_priority_strategies_all_legal;
          Alcotest.test_case "static levels" `Quick test_static_level_values;
          Alcotest.test_case "Pf is default" `Quick test_pf_default_unchanged;
        ] );
    ]
