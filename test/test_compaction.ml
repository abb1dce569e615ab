(* Tests for rotation, remapping and the cyclo-compaction driver,
   including the paper's theorems as executable properties. *)

module Csdfg = Dataflow.Csdfg
module Schedule = Cyclo.Schedule
module Comm = Cyclo.Comm
module Startup = Cyclo.Startup
module Rotation = Cyclo.Rotation
module Remap = Cyclo.Remap
module Compaction = Cyclo.Compaction
module Validator = Cyclo.Validator
module Baseline = Cyclo.Baseline

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let fig1b = Workloads.Examples.fig1b

let paper_mesh () =
  Topology.relabel (Topology.mesh ~rows:2 ~cols:2)
    Workloads.Examples.fig1_mesh_permutation

let node g l = Csdfg.node_of_label g l

(* ------------------------------------------------------------------ *)
(* Rotation                                                             *)
(* ------------------------------------------------------------------ *)

let test_rotation_first_pass () =
  let s = Startup.run_on fig1b (paper_mesh ()) in
  match Rotation.start s with
  | Error e -> Alcotest.fail e
  | Ok rot ->
      Alcotest.(check (list int)) "J = {A}" [ node fig1b "A" ] rot.Rotation.rotated;
      check "previous length" 7 rot.Rotation.previous_length;
      (* remaining nodes shifted up by one *)
      check "B now at row 1" 1 (Schedule.cb rot.Rotation.base (node fig1b "B"));
      check "base length" 6 (Schedule.length rot.Rotation.base);
      (* the retimed delays match paper Figure 1(c) *)
      let dfg = Schedule.dfg rot.Rotation.base in
      let d s t =
        let e =
          List.find
            (fun e ->
              Csdfg.label dfg e.Digraph.Graph.src = s
              && Csdfg.label dfg e.Digraph.Graph.dst = t)
            (Csdfg.edges dfg)
        in
        Schedule.delay rot.Rotation.base e
      in
      check "D->A retimed" 2 (d "D" "A");
      check "A->B retimed" 1 (d "A" "B")

let test_rotation_fallback_reproduces_rotated_schedule () =
  (* Lemma 4.1: the fallback placement is the original schedule rotated,
     same length, still legal. *)
  let s = Startup.run_on fig1b (paper_mesh ()) in
  match Rotation.start s with
  | Error e -> Alcotest.fail e
  | Ok rot ->
      let fb = Rotation.apply_fallback rot in
      check "same length (Lemma 4.1)" (Schedule.length s) (Schedule.length fb);
      check "A at the end on its old processor" 7
        (Schedule.cb fb (node fig1b "A"));
      check "A same pe" (Schedule.pe s (node fig1b "A"))
        (Schedule.pe fb (node fig1b "A"));
      check_bool "fallback legal" true (Validator.is_legal fb)

let test_rotation_on_empty () =
  let s = Schedule.empty fig1b (Comm.of_topology (paper_mesh ())) in
  check_bool "empty rejected" true (Result.is_error (Rotation.start s))

(* ------------------------------------------------------------------ *)
(* Remap (one pass)                                                     *)
(* ------------------------------------------------------------------ *)

let test_first_pass_moves_a_off_pe1 () =
  (* The paper's first cyclo iteration re-places A under PE2 and shortens
     the table to 6. *)
  let s = Startup.run_on fig1b (paper_mesh ()) in
  let next, outcome = Compaction.pass Remap.With_relaxation s in
  check_bool "compacted" true (outcome = Compaction.Compacted);
  check "length 6" 6 (Schedule.length next);
  check_bool "A moved off pe1" true (Schedule.pe next (node fig1b "A") <> 0);
  check_bool "legal" true (Validator.is_legal next)

let test_pass_without_relaxation_never_grows () =
  (* Theorem 4.4 on a concrete run. *)
  let rec drive s n =
    if n = 0 then ()
    else begin
      let next, _ = Compaction.pass Remap.Without_relaxation s in
      check_bool "non-increasing (Theorem 4.4)" true
        (Schedule.length next <= Schedule.length s);
      check_bool "legal" true (Validator.is_legal next);
      drive next (n - 1)
    end
  in
  drive (Startup.run_on fig1b (paper_mesh ())) 15

let test_place_order_deterministic () =
  let s = Startup.run_on fig1b (paper_mesh ()) in
  match Rotation.start s with
  | Error e -> Alcotest.fail e
  | Ok rot ->
      Alcotest.(check (list int)) "order" rot.Rotation.rotated
        (Remap.place_order rot)

(* ------------------------------------------------------------------ *)
(* Full compaction: the paper's Figure 1-4 walkthrough                  *)
(* ------------------------------------------------------------------ *)

let test_fig1_compaction_beats_paper () =
  (* The paper compacts 7 -> 5 in three passes; the remapper here reaches
     the iteration bound (3).  Anything <= 5 reproduces the claim. *)
  let r = Compaction.run_on fig1b (paper_mesh ()) in
  check "startup length" 7 (Schedule.length r.Compaction.startup);
  check_bool "at most the paper's 5" true
    (Schedule.length r.Compaction.best <= 5);
  check_bool "never below the iteration bound" true
    (Schedule.length r.Compaction.best
    >= Option.get (Dataflow.Iteration_bound.exact_ceil fig1b));
  check_bool "legal" true (Validator.is_legal r.Compaction.best);
  check_bool "simulated legal" true
    (Validator.simulate r.Compaction.best ~iterations:8 = Ok ())

let test_fig1_reaches_five_within_three_passes () =
  let r = Compaction.run_on ~passes:3 fig1b (paper_mesh ()) in
  check_bool "7 -> <= 5 in three passes (paper Figure 3(b))" true
    (Schedule.length r.Compaction.best <= 5)

let test_trace_is_complete_and_consistent () =
  let r = Compaction.run_on ~passes:10 fig1b (paper_mesh ()) in
  check_bool "trace not empty" true (r.Compaction.trace <> []);
  List.iteri
    (fun i e -> check "pass numbering" (i + 1) e.Compaction.pass)
    r.Compaction.trace;
  let min_traced =
    List.fold_left (fun acc e -> min acc e.Compaction.length)
      (Schedule.length r.Compaction.startup)
      r.Compaction.trace
  in
  check "best equals the minimum over the trace" min_traced
    (Schedule.length r.Compaction.best)

let test_without_relaxation_monotone_trace () =
  let r =
    Compaction.run_on ~mode:Remap.Without_relaxation fig1b (paper_mesh ())
  in
  let rec monotone prev = function
    | [] -> true
    | e :: rest -> e.Compaction.length <= prev && monotone e.Compaction.length rest
  in
  check_bool "Theorem 4.4 over the whole trace" true
    (monotone (Schedule.length r.Compaction.startup) r.Compaction.trace);
  check_bool "no Expanded outcome" true
    (List.for_all
       (fun e -> e.Compaction.outcome <> Compaction.Expanded)
       r.Compaction.trace)

let test_best_never_worse_than_startup () =
  List.iter
    (fun (name, g) ->
      let r = Compaction.run_on g (Topology.hypercube 3) in
      Alcotest.(check bool)
        (name ^ ": best <= startup")
        true
        (Schedule.length r.Compaction.best
        <= Schedule.length r.Compaction.startup))
    (Workloads.Suite.all ())

let test_compaction_respects_iteration_bound () =
  List.iter
    (fun (name, g) ->
      match Dataflow.Iteration_bound.exact_ceil g with
      | None -> ()
      | Some bound ->
          let r = Compaction.run_on g (Topology.complete 8) in
          Alcotest.(check bool)
            (name ^ ": length >= iteration bound")
            true
            (Schedule.length r.Compaction.best >= bound))
    (Workloads.Suite.all ())

let test_modes_both_legal_fig7 () =
  let g = Workloads.Examples.fig7 in
  List.iter
    (fun mode ->
      let r = Compaction.run_on ~mode g (Topology.mesh ~rows:2 ~cols:4) in
      check_bool "legal" true (Validator.is_legal r.Compaction.best))
    [ Remap.Without_relaxation; Remap.With_relaxation ]

let test_passes_zero_returns_startup () =
  let r = Compaction.run_on ~passes:0 fig1b (paper_mesh ()) in
  check "no passes" 0 (List.length r.Compaction.trace);
  check "best is startup" 0
    (Schedule.compare_assignments r.Compaction.best r.Compaction.startup)

let test_single_processor_fixed_point () =
  (* On one processor rotation can only cycle the order; length stays at
     the sequential sum. *)
  let r = Compaction.run_on fig1b (Topology.linear_array 1) in
  check "sequential length" (Csdfg.total_time fig1b)
    (Schedule.length r.Compaction.best)

(* ------------------------------------------------------------------ *)
(* Remap scoring strategies                                             *)
(* ------------------------------------------------------------------ *)

let test_scoring_both_legal () =
  List.iter
    (fun scoring ->
      let r =
        Compaction.run_on ~scoring Workloads.Examples.fig7
          (Topology.mesh ~rows:2 ~cols:4)
      in
      check_bool "legal" true (Validator.is_legal r.Compaction.best))
    [ Remap.Pressure_first; Remap.Earliest_step ]

let test_scoring_pressure_helps_serial_chains () =
  (* The elliptic filter is a long serial chain: earliest-step remapping
     re-queues it behind its old processor and plateaus; pressure-first
     pipelines it (DESIGN.md §5, bench A8). *)
  let g = Dataflow.Transform.slowdown Workloads.Filters.elliptic 3 in
  let topo = Topology.complete 8 in
  let pressure =
    Compaction.run_on ~scoring:Remap.Pressure_first ~validate:false g topo
  in
  let earliest =
    Compaction.run_on ~scoring:Remap.Earliest_step ~validate:false g topo
  in
  check_bool "pressure strictly better on the elliptic chain" true
    (Schedule.length pressure.Compaction.best
    < Schedule.length earliest.Compaction.best)

let test_scoring_theorem_4_4_holds_for_both () =
  List.iter
    (fun scoring ->
      let r =
        Compaction.run_on ~scoring ~mode:Remap.Without_relaxation
          Workloads.Examples.fig7 (Topology.ring 8)
      in
      let rec monotone prev = function
        | [] -> true
        | e :: rest ->
            e.Compaction.length <= prev && monotone e.Compaction.length rest
      in
      check_bool "monotone" true
        (monotone (Schedule.length r.Compaction.startup) r.Compaction.trace))
    [ Remap.Pressure_first; Remap.Earliest_step ]

(* ------------------------------------------------------------------ *)
(* Baselines                                                            *)
(* ------------------------------------------------------------------ *)

let test_repair_produces_legal_schedule () =
  let topo = paper_mesh () in
  let zero = Comm.zero ~n:4 ~name:"z" in
  let oblivious = Startup.run fig1b zero in
  let repaired = Baseline.repair oblivious (Comm.of_topology topo) in
  check_bool "repaired is legal" true (Validator.is_legal repaired);
  (* processor assignments preserved *)
  List.iter
    (fun v ->
      check "same pe" (Schedule.pe oblivious v) (Schedule.pe repaired v))
    (Csdfg.nodes fig1b)

let test_oblivious_pays_for_communication () =
  (* The comm-oblivious schedule spreads C to another processor and must
     then pay the transfer: repaired length >= the aware scheduler's. *)
  let topo = paper_mesh () in
  let aware = Startup.run_on fig1b topo in
  let oblivious = Baseline.list_oblivious fig1b topo in
  check_bool "communication awareness does not lose" true
    (Schedule.length aware <= Schedule.length oblivious)

let test_rotation_oblivious_baseline_legal () =
  let topo = Topology.mesh ~rows:2 ~cols:4 in
  let s = Baseline.rotation_oblivious Workloads.Examples.fig7 topo in
  check_bool "legal" true (Validator.is_legal s)

let test_cyclo_beats_or_ties_rotation_oblivious_fig7 () =
  (* The paper's core claim: communication-sensitive remapping wins on
     communication-bound architectures. *)
  let topo = Topology.linear_array 8 in
  let g = Workloads.Examples.fig7 in
  let ours = Compaction.run_on g topo in
  let oblivious = Baseline.rotation_oblivious g topo in
  check_bool "cyclo <= repaired oblivious rotation" true
    (Schedule.length ours.Compaction.best <= Schedule.length oblivious)

(* Sixteen passes on a 2000-node loop, pinned by the MD5 of the
   schedule signatures: retiming only the rotated row's edges, shifting
   rows by an offset and the one-pass validator must not move a
   placement. *)
let test_scale_passes_pinned () =
  let g = Workloads.Random_gen.layered ~nodes:2000 ~seed:1 () in
  let topo = Topology.linear_array 8 in
  let md5 s = Digest.to_hex (Digest.string (Schedule.signature s)) in
  List.iter
    (fun (name, mode, best, final) ->
      let r = Compaction.run_on ~mode ~passes:16 g topo in
      Alcotest.(check string) (name ^ " best") best (md5 r.Compaction.best);
      Alcotest.(check string) (name ^ " final") final (md5 r.Compaction.final))
    [
      ( "with relaxation",
        Remap.With_relaxation,
        "90fb653f73750347632166c0ef89f66c",
        "556fb68c3e1a41515f44a3b829e8cd51" );
      ( "without relaxation",
        Remap.Without_relaxation,
        "90fb653f73750347632166c0ef89f66c",
        "90fb653f73750347632166c0ef89f66c" );
    ]

let () =
  Alcotest.run "compaction"
    [
      ( "rotation",
        [
          Alcotest.test_case "first pass" `Quick test_rotation_first_pass;
          Alcotest.test_case "fallback = rotated schedule" `Quick
            test_rotation_fallback_reproduces_rotated_schedule;
          Alcotest.test_case "empty schedule" `Quick test_rotation_on_empty;
        ] );
      ( "remap",
        [
          Alcotest.test_case "paper first iteration" `Quick
            test_first_pass_moves_a_off_pe1;
          Alcotest.test_case "theorem 4.4 stepwise" `Quick
            test_pass_without_relaxation_never_grows;
          Alcotest.test_case "deterministic order" `Quick
            test_place_order_deterministic;
        ] );
      ( "full-run",
        [
          Alcotest.test_case "fig1 walkthrough" `Quick
            test_fig1_compaction_beats_paper;
          Alcotest.test_case "three passes reach 5" `Quick
            test_fig1_reaches_five_within_three_passes;
          Alcotest.test_case "trace consistency" `Quick
            test_trace_is_complete_and_consistent;
          Alcotest.test_case "theorem 4.4 whole trace" `Quick
            test_without_relaxation_monotone_trace;
          Alcotest.test_case "best <= startup everywhere" `Quick
            test_best_never_worse_than_startup;
          Alcotest.test_case "respects iteration bound" `Quick
            test_compaction_respects_iteration_bound;
          Alcotest.test_case "both modes legal on fig7" `Quick
            test_modes_both_legal_fig7;
          Alcotest.test_case "zero passes" `Quick test_passes_zero_returns_startup;
          Alcotest.test_case "single processor" `Quick
            test_single_processor_fixed_point;
          Alcotest.test_case "2000 nodes, 16 passes pinned" `Quick
            test_scale_passes_pinned;
        ] );
      ( "scoring",
        [
          Alcotest.test_case "both legal" `Quick test_scoring_both_legal;
          Alcotest.test_case "pressure pipelines chains" `Quick
            test_scoring_pressure_helps_serial_chains;
          Alcotest.test_case "theorem 4.4 either way" `Quick
            test_scoring_theorem_4_4_holds_for_both;
        ] );
      ( "baselines",
        [
          Alcotest.test_case "repair legality" `Quick
            test_repair_produces_legal_schedule;
          Alcotest.test_case "oblivious pays" `Quick
            test_oblivious_pays_for_communication;
          Alcotest.test_case "rotation baseline legal" `Quick
            test_rotation_oblivious_baseline_legal;
          Alcotest.test_case "cyclo vs oblivious rotation" `Quick
            test_cyclo_beats_or_ties_rotation_oblivious_fig7;
        ] );
    ]
