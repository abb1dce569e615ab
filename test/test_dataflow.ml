(* Unit tests for the CSDFG model, retiming, analysis, iteration bound,
   transformations and text I/O. *)

module Csdfg = Dataflow.Csdfg
module Retiming = Dataflow.Retiming
module G = Digraph.Graph

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let fig1b = Workloads.Examples.fig1b

let delays g =
  List.map (fun e -> (Csdfg.label g e.G.src, Csdfg.label g e.G.dst, Csdfg.delay e))
    (Csdfg.edges g)

(* ------------------------------------------------------------------ *)
(* Csdfg construction and accessors                                     *)
(* ------------------------------------------------------------------ *)

let test_fig1b_shape () =
  check "nodes" 6 (Csdfg.n_nodes fig1b);
  check "edges" 10 (Csdfg.n_edges fig1b);
  check "t(B)" 2 (Csdfg.time fig1b (Csdfg.node_of_label fig1b "B"));
  check "t(A)" 1 (Csdfg.time fig1b (Csdfg.node_of_label fig1b "A"));
  check "total time" 8 (Csdfg.total_time fig1b);
  check "max time" 2 (Csdfg.max_time fig1b)

let test_labels_roundtrip () =
  List.iter
    (fun v ->
      check "label -> node -> label" v
        (Csdfg.node_of_label fig1b (Csdfg.label fig1b v)))
    (Csdfg.nodes fig1b)

let test_unknown_label () =
  check_bool "raises Not_found" true
    (match Csdfg.node_of_label fig1b "nope" with
    | exception Not_found -> true
    | _ -> false)

let test_duplicate_label_rejected () =
  check_bool "duplicate rejected" true
    (match
       Csdfg.make ~name:"dup" ~nodes:[ ("A", 1); ("A", 1) ] ~edges:[]
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_bad_time_rejected () =
  check_bool "zero time rejected" true
    (match Csdfg.make ~name:"z" ~nodes:[ ("A", 0) ] ~edges:[] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_bad_volume_rejected () =
  check_bool "zero volume rejected" true
    (match
       Csdfg.make ~name:"v" ~nodes:[ ("A", 1); ("B", 1) ]
         ~edges:[ ("A", "B", 0, 0) ]
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_negative_delay_rejected () =
  check_bool "negative delay rejected" true
    (match
       Csdfg.make ~name:"d" ~nodes:[ ("A", 1); ("B", 1) ]
         ~edges:[ ("A", "B", -1, 1) ]
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_validate_legal () =
  check_bool "fig1b legal" true (Csdfg.is_legal fig1b)

let test_validate_zero_delay_cycle () =
  let bad =
    Csdfg.make ~name:"bad" ~nodes:[ ("A", 1); ("B", 1) ]
      ~edges:[ ("A", "B", 0, 1); ("B", "A", 0, 1) ]
  in
  match Csdfg.validate bad with
  | Ok () -> Alcotest.fail "zero-delay cycle must be rejected"
  | Error problems ->
      check_bool "reports a cycle" true
        (List.exists
           (function Csdfg.Zero_delay_cycle _ -> true | _ -> false)
           problems)

let test_zero_delay_graph () =
  let dag = Csdfg.zero_delay_graph fig1b in
  check "zero-delay edges" 8 (G.n_edges dag);
  check_bool "acyclic" true (Digraph.Topo.is_dag dag)

let test_io_roundtrip () =
  let text = Dataflow.Io.to_string fig1b in
  match Dataflow.Io.of_string text with
  | Error e -> Alcotest.fail (Dataflow.Io.error_to_string e)
  | Ok g ->
      check "nodes preserved" (Csdfg.n_nodes fig1b) (Csdfg.n_nodes g);
      check "edges preserved" (Csdfg.n_edges fig1b) (Csdfg.n_edges g);
      Alcotest.(check (list (triple string string int)))
        "delays preserved" (delays fig1b) (delays g)

let test_io_comments_and_blanks () =
  let text = "# heading\n\ncsdfg t\nnode A 1  # trailing\nnode B 2\nedge A B 0 1\n" in
  match Dataflow.Io.of_string text with
  | Error e -> Alcotest.fail (Dataflow.Io.error_to_string e)
  | Ok g ->
      check "two nodes" 2 (Csdfg.n_nodes g);
      check "one edge" 1 (Csdfg.n_edges g)

let test_io_errors () =
  let cases =
    [
      ("node A x\n", "bad int");
      ("frob A\n", "unknown directive");
      ("edge A B 0 1\n", "unknown label");
    ]
  in
  List.iter
    (fun (text, what) ->
      match Dataflow.Io.of_string text with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail ("parser accepted " ^ what))
    cases

let test_io_error_line_number () =
  match Dataflow.Io.of_string "csdfg t\nnode A one\n" with
  | Error e ->
      Alcotest.(check (option int)) "line 2" (Some 2) e.Dataflow.Io.line;
      check_bool "mentions line 2" true
        (String.length (Dataflow.Io.error_to_string e) >= 6
        && String.sub (Dataflow.Io.error_to_string e) 0 6 = "line 2")
  | Ok _ -> Alcotest.fail "must fail"

(* ------------------------------------------------------------------ *)
(* Retiming                                                             *)
(* ------------------------------------------------------------------ *)

(* Rotating a set is the retiming r = 1 on the set (Definition 4.1). *)
let rotation g set =
  let r = Retiming.identity g in
  List.iter (fun v -> r.(v) <- 1) set;
  r

let test_rotation_fig1 () =
  (* Paper Figure 1(b) -> 1(c): rotating {A} moves D->A from 3 to 2 and
     gives each A out-edge one delay. *)
  let a = Csdfg.node_of_label fig1b "A" in
  let g' = Retiming.apply fig1b (rotation fig1b [ a ]) in
  let d s t =
    let e =
      List.find
        (fun e -> Csdfg.label g' e.G.src = s && Csdfg.label g' e.G.dst = t)
        (Csdfg.edges g')
    in
    Csdfg.delay e
  in
  check "D->A" 2 (d "D" "A");
  check "A->B" 1 (d "A" "B");
  check "A->C" 1 (d "A" "C");
  check "A->E" 1 (d "A" "E");
  check "B->D untouched" 0 (d "B" "D");
  check "F->E untouched" 1 (d "F" "E")

let test_rotation_illegal () =
  let b = Csdfg.node_of_label fig1b "B" in
  (* B's incoming edge A->B has no delay: rotating {B} is illegal. *)
  check_bool "cannot rotate B" false
    (Retiming.is_legal fig1b (rotation fig1b [ b ]));
  check_bool "raises" true
    (match Retiming.apply fig1b (rotation fig1b [ b ]) with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_retiming_preserves_cycle_delay () =
  let a = Csdfg.node_of_label fig1b "A" in
  let g' = Retiming.apply fig1b (rotation fig1b [ a ]) in
  let cycle_delay g cyc =
    Oracle.Cycles.fold_cycle_weight (Csdfg.graph g) cyc ~init:0
      ~f:(fun acc e -> acc + Csdfg.delay e)
  in
  let cycles = Oracle.Cycles.elementary (Csdfg.graph fig1b) in
  check_bool "some cycles" true (cycles <> []);
  List.iter
    (fun cyc ->
      check "cycle delay invariant" (cycle_delay fig1b cyc) (cycle_delay g' cyc))
    cycles

let test_retiming_legality_preserved () =
  let a = Csdfg.node_of_label fig1b "A" in
  check_bool "retimed graph still legal" true
    (Csdfg.is_legal (Retiming.apply fig1b (rotation fig1b [ a ])))

let test_apply_identity () =
  let g' = Retiming.apply fig1b (Retiming.identity fig1b) in
  Alcotest.(check (list (triple string string int)))
    "identity retiming changes nothing" (delays fig1b) (delays g')

let test_clock_period () =
  (* Longest zero-delay path of fig1b: A B B E E F = 6 time units. *)
  check "clock period" 6 (Retiming.clock_period fig1b)

let test_wd_matrices () =
  let w, d = Retiming.wd_matrices fig1b in
  let idx l = Csdfg.node_of_label fig1b l in
  check "W(A,F) min delays" 0 w.(idx "A").(idx "F");
  check "D(A,F) longest zero-delay time" 6 d.(idx "A").(idx "F");
  check "W diag" 0 w.(idx "A").(idx "A");
  check "W(D,A) via feedback" 3 w.(idx "D").(idx "A")

let test_min_period () =
  let period, r = Retiming.min_period fig1b in
  check_bool "achievable <= current" true (period <= Retiming.clock_period fig1b);
  check_bool "witness legal" true (Retiming.is_legal fig1b r);
  check "witness achieves period" period
    (Retiming.clock_period (Retiming.apply fig1b r));
  (* fig1b's iteration bound is 3 (cycle E->F->E): the zero-delay path
     through E and F alone costs 3, so no retiming beats 3. *)
  check_bool "period within known range" true (period >= 3 && period <= 6)

let test_feasible_absurd_period () =
  check_bool "period 1 infeasible for fig1b (t(B) = 2)" true
    (Retiming.feasible fig1b ~period:1 = None)

let test_feasible_current_period () =
  match Retiming.feasible fig1b ~period:(Retiming.clock_period fig1b) with
  | None -> Alcotest.fail "current period is always feasible"
  | Some r -> check_bool "legal witness" true (Retiming.is_legal fig1b r)

(* ------------------------------------------------------------------ *)
(* Analysis                                                             *)
(* ------------------------------------------------------------------ *)

let test_analysis_fig1b () =
  let a = Dataflow.Analysis.compute fig1b in
  let idx l = Csdfg.node_of_label fig1b l in
  check "critical path" 6 a.Dataflow.Analysis.critical_path;
  check "asap A" 1 a.Dataflow.Analysis.asap.(idx "A");
  check "asap B" 2 a.Dataflow.Analysis.asap.(idx "B");
  check "asap E" 4 a.Dataflow.Analysis.asap.(idx "E");
  check "asap F" 6 a.Dataflow.Analysis.asap.(idx "F");
  check "mobility A" 0 (Dataflow.Analysis.mobility a (idx "A"));
  check "mobility B" 0 (Dataflow.Analysis.mobility a (idx "B"));
  (* C can slip to step 3 without stretching the critical path. *)
  check "mobility C" 1 (Dataflow.Analysis.mobility a (idx "C"));
  check "mobility D" 1 (Dataflow.Analysis.mobility a (idx "D"))

let test_analysis_rejects_illegal () =
  let bad =
    Csdfg.make ~name:"bad" ~nodes:[ ("A", 1); ("B", 1) ]
      ~edges:[ ("A", "B", 0, 1); ("B", "A", 0, 1) ]
  in
  check_bool "raises" true
    (match Dataflow.Analysis.compute bad with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Iteration bound                                                      *)
(* ------------------------------------------------------------------ *)

let test_iteration_bound_fig1b () =
  (* Cycles: A->B->D->A with T=4, d=3 (4/3); E->F->E with T=3, d=1 (3). *)
  match Dataflow.Iteration_bound.exact fig1b with
  | None -> Alcotest.fail "fig1b is cyclic"
  | Some (t, d) ->
      check_bool "bound = 3" true (t = 3 * d);
      check "ceil" 3 (Option.get (Dataflow.Iteration_bound.exact_ceil fig1b))

(* A bound that is not an integer: A -> B -> A, times 2 and 3, over two
   delays is 5/2, and the smallest schedule length it permits is 3. *)
let test_iteration_bound_fractional () =
  let g =
    Csdfg.make ~name:"half" ~nodes:[ ("A", 2); ("B", 3) ]
      ~edges:[ ("A", "B", 1, 1); ("B", "A", 1, 1) ]
  in
  (match Dataflow.Iteration_bound.exact g with
  | Some (t, d) -> check_bool "bound = 5/2" true (2 * t = 5 * d)
  | None -> Alcotest.fail "the loop is cyclic");
  check "ceil" 3 (Option.get (Dataflow.Iteration_bound.exact_ceil g))

let test_iteration_bound_acyclic () =
  let dag =
    Csdfg.make ~name:"dag" ~nodes:[ ("A", 1); ("B", 1) ]
      ~edges:[ ("A", "B", 0, 1) ]
  in
  check_bool "acyclic -> None" true (Dataflow.Iteration_bound.exact dag = None)

(* Exact at scale: this graph holds far more elementary cycles than any
   enumeration bound, and the bound must still be the true one. *)
let test_iteration_bound_scale () =
  let g = Workloads.Random_gen.layered ~nodes:1000 ~seed:1 () in
  check "layered 1000 seed 1" 29
    (Option.get (Dataflow.Iteration_bound.exact_ceil g))

(* Whether some way of realising the node cycle [cyc], one edge per
   hop, has the ratio [t/d]. *)
let attains g (t, d) cyc =
  List.exists
    (fun edges ->
      let sum f = List.fold_left (fun acc e -> acc + f e) 0 edges in
      sum (fun e -> Csdfg.time g e.G.src) * d = t * sum Csdfg.delay)
    (Oracle.Cycles.all_cycle_edges (Csdfg.graph g) cyc)

(* The enumeration the witness replaced, as the reference: every
   elementary cycle attaining the bound. *)
let enumerated_critical g =
  match Dataflow.Iteration_bound.exact g with
  | None -> []
  | Some b ->
      Oracle.Cycles.elementary (Csdfg.graph g) |> List.filter (attains g b)

let test_critical_cycles () =
  check "fig1b has one critical cycle" 1
    (List.length (enumerated_critical fig1b));
  let labels =
    List.map (Csdfg.label fig1b)
      (Option.get (Dataflow.Iteration_bound.critical_cycle fig1b))
  in
  Alcotest.(check (list string)) "it is E-F" [ "E"; "F" ] labels

(* On random loops the witness is one of the enumerated critical cycles:
   elementary, from its smallest node, with the ratio of [exact]. *)
let test_critical_cycle_random =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"critical cycle attains exact"
       (QCheck.int_range 0 100_000)
       (fun seed ->
         let g = Workloads.Random_gen.generate ~seed () in
         match Dataflow.Iteration_bound.critical_cycle g with
         | None -> Dataflow.Iteration_bound.exact g = None
         | Some c -> List.mem c (enumerated_critical g)))

(* Found at a size where the enumeration stops after 10^5 cycles. *)
let test_critical_cycle_scale () =
  let g = Workloads.Random_gen.layered ~nodes:1000 ~seed:1 () in
  match
    ( Dataflow.Iteration_bound.exact g,
      Dataflow.Iteration_bound.critical_cycle g )
  with
  | Some b, Some c -> check_bool "attains the bound" true (attains g b c)
  | _ -> Alcotest.fail "layered 1000 has a critical cycle"

(* ------------------------------------------------------------------ *)
(* Transform                                                            *)
(* ------------------------------------------------------------------ *)

let test_slowdown () =
  let g = Dataflow.Transform.slowdown fig1b 3 in
  let d s t =
    let e =
      List.find
        (fun e -> Csdfg.label g e.G.src = s && Csdfg.label g e.G.dst = t)
        (Csdfg.edges g)
    in
    Csdfg.delay e
  in
  check "D->A tripled" 9 (d "D" "A");
  check "F->E tripled" 3 (d "F" "E");
  check "zero stays zero" 0 (d "A" "B");
  check_bool "still legal" true (Csdfg.is_legal g)

let test_slowdown_divides_bound () =
  (* Slow-down by k divides the iteration bound by k. *)
  let g = Dataflow.Transform.slowdown fig1b 3 in
  match (Dataflow.Iteration_bound.exact fig1b, Dataflow.Iteration_bound.exact g) with
  | Some (t0, d0), Some (t1, d1) ->
      check_bool "bound scaled by 1/3" true (t0 * d1 = 3 * t1 * d0)
  | _ -> Alcotest.fail "both cyclic"

let test_slowdown_bad_factor () =
  check_bool "rejects zero" true
    (match Dataflow.Transform.slowdown fig1b 0 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_unfold () =
  let g = Dataflow.Transform.unfold fig1b 2 in
  check "nodes doubled" 12 (Csdfg.n_nodes g);
  check "edges doubled" 20 (Csdfg.n_edges g);
  check_bool "legal" true (Csdfg.is_legal g);
  (* Total delay is preserved by unfolding. *)
  let total g = List.fold_left (fun acc e -> acc + Csdfg.delay e) 0 (Csdfg.edges g) in
  check "total delay preserved" (total fig1b) (total g)

let test_unfold_one_is_identity () =
  let g = Dataflow.Transform.unfold fig1b 1 in
  check "same node count" (Csdfg.n_nodes fig1b) (Csdfg.n_nodes g);
  check "same edge count" (Csdfg.n_edges fig1b) (Csdfg.n_edges g)

let test_scale_volumes_times () =
  let gv = Dataflow.Transform.scale_volumes fig1b 4 in
  let e0 = List.hd (Csdfg.edges gv) in
  check "volume scaled" (4 * Csdfg.volume (List.hd (Csdfg.edges fig1b)))
    (Csdfg.volume e0)

let test_disjoint_union () =
  let u = Dataflow.Transform.disjoint_union fig1b fig1b in
  check "nodes add" 12 (Csdfg.n_nodes u);
  check "edges add" 20 (Csdfg.n_edges u);
  check_bool "legal" true (Csdfg.is_legal u)

(* ------------------------------------------------------------------ *)
(* Odds and ends: printers, guards, exact unfold delays                 *)
(* ------------------------------------------------------------------ *)

let contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let test_pp_outputs () =
  let s = Fmt.str "%a" Csdfg.pp fig1b in
  check_bool "lists nodes" true (contains s "node B t=2");
  check_bool "lists edges" true (contains s "D -> A d=3 c=3");
  let stats = Fmt.str "%a" Csdfg.pp_stats fig1b in
  check_bool "stats line" true (contains stats "|V|=6 |E|=10")

let test_illegal_edges_listed () =
  let r = Array.make 6 0 in
  r.(Csdfg.node_of_label fig1b "B") <- 1;
  (* B's zero-delay in-edge A->B would go negative *)
  check "one offending edge" 1
    (List.length (Retiming.illegal_edges fig1b r));
  check_bool "flagged as illegal" false (Retiming.is_legal fig1b r)

let test_unfold_exact_delays () =
  (* fig1b unfolded by 2: D -> A with d=3 becomes D#0 -> A#1 (d=1) and
     D#1 -> A#0 (d=2); F -> E with d=1 becomes F#0 -> E#1 (d=0) and
     F#1 -> E#0 (d=1). *)
  let g = Dataflow.Transform.unfold fig1b 2 in
  let d s t =
    let e =
      List.find
        (fun e ->
          Csdfg.label g e.G.src = s && Csdfg.label g e.G.dst = t)
        (Csdfg.edges g)
    in
    Csdfg.delay e
  in
  check "D#0 -> A#1" 1 (d "D#0" "A#1");
  check "D#1 -> A#0" 2 (d "D#1" "A#0");
  check "F#0 -> E#1" 0 (d "F#0" "E#1");
  check "F#1 -> E#0" 1 (d "F#1" "E#0");
  check "A#0 -> B#0 stays intra" 0 (d "A#0" "B#0")

let test_transform_guards () =
  List.iter
    (fun (what, f) ->
      check_bool what true
        (match f () with exception Invalid_argument _ -> true | _ -> false))
    [
      ("unfold 0", fun () -> ignore (Dataflow.Transform.unfold fig1b 0));
      ("scale_volumes 0", fun () -> ignore (Dataflow.Transform.scale_volumes fig1b 0));
    ]

let test_dot_export_mentions_delays () =
  let dot = Dataflow.Dot_export.to_dot fig1b in
  check_bool "delay bars" true (contains dot "|||");
  check_bool "volumes" true (contains dot "c=3");
  check_bool "times in labels" true (contains dot "B (2)")

let () =
  Alcotest.run "dataflow"
    [
      ( "csdfg",
        [
          Alcotest.test_case "fig1b shape" `Quick test_fig1b_shape;
          Alcotest.test_case "label roundtrip" `Quick test_labels_roundtrip;
          Alcotest.test_case "unknown label" `Quick test_unknown_label;
          Alcotest.test_case "duplicate label" `Quick test_duplicate_label_rejected;
          Alcotest.test_case "bad time" `Quick test_bad_time_rejected;
          Alcotest.test_case "bad volume" `Quick test_bad_volume_rejected;
          Alcotest.test_case "negative delay" `Quick test_negative_delay_rejected;
          Alcotest.test_case "validate legal" `Quick test_validate_legal;
          Alcotest.test_case "zero-delay cycle" `Quick test_validate_zero_delay_cycle;
          Alcotest.test_case "zero-delay graph" `Quick test_zero_delay_graph;
        ] );
      ( "io",
        [
          Alcotest.test_case "roundtrip" `Quick test_io_roundtrip;
          Alcotest.test_case "comments/blanks" `Quick test_io_comments_and_blanks;
          Alcotest.test_case "errors" `Quick test_io_errors;
          Alcotest.test_case "error line numbers" `Quick test_io_error_line_number;
        ] );
      ( "retiming",
        [
          Alcotest.test_case "paper rotation" `Quick test_rotation_fig1;
          Alcotest.test_case "illegal rotation" `Quick test_rotation_illegal;
          Alcotest.test_case "cycle delay invariant" `Quick
            test_retiming_preserves_cycle_delay;
          Alcotest.test_case "legality preserved" `Quick
            test_retiming_legality_preserved;
          Alcotest.test_case "identity" `Quick test_apply_identity;
          Alcotest.test_case "clock period" `Quick test_clock_period;
          Alcotest.test_case "W/D matrices" `Quick test_wd_matrices;
          Alcotest.test_case "min period" `Quick test_min_period;
          Alcotest.test_case "infeasible period" `Quick test_feasible_absurd_period;
          Alcotest.test_case "current period feasible" `Quick
            test_feasible_current_period;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "fig1b asap/alap" `Quick test_analysis_fig1b;
          Alcotest.test_case "illegal input" `Quick test_analysis_rejects_illegal;
        ] );
      ( "iteration-bound",
        [
          Alcotest.test_case "fig1b" `Quick test_iteration_bound_fig1b;
          Alcotest.test_case "fractional bound" `Quick
            test_iteration_bound_fractional;
          Alcotest.test_case "acyclic" `Quick test_iteration_bound_acyclic;
          Alcotest.test_case "critical cycles" `Quick test_critical_cycles;
          Alcotest.test_case "exact at 1000 nodes" `Quick
            test_iteration_bound_scale;
          test_critical_cycle_random;
          Alcotest.test_case "critical cycle at 1000 nodes" `Quick
            test_critical_cycle_scale;
        ] );
      ( "transform",
        [
          Alcotest.test_case "slowdown" `Quick test_slowdown;
          Alcotest.test_case "slowdown scales bound" `Quick
            test_slowdown_divides_bound;
          Alcotest.test_case "slowdown bad factor" `Quick test_slowdown_bad_factor;
          Alcotest.test_case "unfold" `Quick test_unfold;
          Alcotest.test_case "unfold 1" `Quick test_unfold_one_is_identity;
          Alcotest.test_case "scale volumes/times" `Quick test_scale_volumes_times;
          Alcotest.test_case "disjoint union" `Quick test_disjoint_union;
        ] );
      ( "misc",
        [
          Alcotest.test_case "printers" `Quick test_pp_outputs;
          Alcotest.test_case "illegal edges" `Quick test_illegal_edges_listed;
          Alcotest.test_case "unfold exact delays" `Quick test_unfold_exact_delays;
          Alcotest.test_case "transform guards" `Quick test_transform_guards;
          Alcotest.test_case "dot export" `Quick test_dot_export_mentions_delays;
        ] );
    ]
