(* Unit tests for schedule tables, the communication model and the shared
   timing rules (AN / PSL). *)

module Csdfg = Dataflow.Csdfg
module Schedule = Cyclo.Schedule
module Comm = Cyclo.Comm
module Timing = Cyclo.Timing
module G = Digraph.Graph

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let fig1b = Workloads.Examples.fig1b

let mesh_comm () =
  Comm.of_topology
    (Topology.relabel (Topology.mesh ~rows:2 ~cols:2)
       Workloads.Examples.fig1_mesh_permutation)

let node l = Csdfg.node_of_label fig1b l
let empty () = Schedule.empty fig1b (mesh_comm ())

(* ------------------------------------------------------------------ *)
(* Comm                                                                 *)
(* ------------------------------------------------------------------ *)

let test_comm_of_topology () =
  let c = mesh_comm () in
  check "processors" 4 (Comm.n_processors c);
  check "same pe free" 0 (Comm.cost c ~src:2 ~dst:2 ~volume:5);
  check "adjacent" 3 (Comm.cost c ~src:0 ~dst:1 ~volume:3);
  check "diagonal" 6 (Comm.cost c ~src:0 ~dst:2 ~volume:3)

let test_comm_zero () =
  let c = Comm.zero ~n:4 ~name:"z" in
  check "always free" 0 (Comm.cost c ~src:0 ~dst:3 ~volume:99)

let test_comm_scaled () =
  let c = Comm.scaled (Topology.linear_array 4) ~factor:2 in
  check "doubled" 12 (Comm.cost c ~src:0 ~dst:3 ~volume:2)

let test_comm_uniform () =
  let c = Comm.uniform ~n:4 ~latency:3 ~name:"u" in
  check "flat" 6 (Comm.cost c ~src:0 ~dst:3 ~volume:2);
  check "self" 0 (Comm.cost c ~src:1 ~dst:1 ~volume:2)

let test_comm_out_of_range () =
  let c = Comm.zero ~n:2 ~name:"z" in
  check_bool "rejects" true
    (match Comm.cost c ~src:0 ~dst:5 ~volume:1 with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Schedule basics                                                      *)
(* ------------------------------------------------------------------ *)

let test_empty_schedule () =
  let s = empty () in
  check "length" 0 (Schedule.length s);
  check "assigned" 0 (Schedule.n_assigned s);
  check_bool "not all assigned" false (Schedule.assigned_all s);
  check "rows" 0 (Schedule.rows_needed s)

let test_assign_basics () =
  let s = Schedule.assign (empty ()) ~node:(node "B") ~cb:2 ~pe:1 in
  check "cb" 2 (Schedule.cb s (node "B"));
  check "ce spans two steps" 3 (Schedule.ce s (node "B"));
  check "pe" 1 (Schedule.pe s (node "B"));
  check "length grew" 3 (Schedule.length s);
  check_bool "assigned" true (Schedule.is_assigned s (node "B"))

let test_assign_overlap_rejected () =
  let s = Schedule.assign (empty ()) ~node:(node "B") ~cb:2 ~pe:0 in
  (* B occupies pe1 cs2-3; A may not start at cs3 there. *)
  check_bool "overlap" true
    (match Schedule.assign s ~node:(node "A") ~cb:3 ~pe:0 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  (* but another processor is fine *)
  let s' = Schedule.assign s ~node:(node "A") ~cb:3 ~pe:1 in
  check "ok elsewhere" 3 (Schedule.cb s' (node "A"))

let test_assign_twice_rejected () =
  let s = Schedule.assign (empty ()) ~node:(node "A") ~cb:1 ~pe:0 in
  check_bool "double assign" true
    (match Schedule.assign s ~node:(node "A") ~cb:2 ~pe:1 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_assign_cb_zero_rejected () =
  check_bool "cb >= 1" true
    (match Schedule.assign (empty ()) ~node:(node "A") ~cb:0 ~pe:0 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_unassign () =
  let s = Schedule.assign (empty ()) ~node:(node "A") ~cb:1 ~pe:0 in
  let s = Schedule.unassign s (node "A") in
  check_bool "gone" false (Schedule.is_assigned s (node "A"))

let test_node_at_multicycle () =
  let s = Schedule.assign (empty ()) ~node:(node "E") ~cb:4 ~pe:2 in
  check_bool "cs4" true (Schedule.node_at s ~pe:2 ~cs:4 = Some (node "E"));
  check_bool "cs5" true (Schedule.node_at s ~pe:2 ~cs:5 = Some (node "E"));
  check_bool "cs6 free" true (Schedule.node_at s ~pe:2 ~cs:6 = None);
  check_bool "other pe free" true (Schedule.node_at s ~pe:1 ~cs:4 = None)

let test_is_free_and_slots () =
  let s = Schedule.assign (empty ()) ~node:(node "B") ~cb:2 ~pe:0 in
  check_bool "cs1 free" true (Schedule.is_free s ~pe:0 ~cb:1 ~span:1);
  check_bool "cs2 busy" false (Schedule.is_free s ~pe:0 ~cb:2 ~span:1);
  check_bool "span crossing busy" false (Schedule.is_free s ~pe:0 ~cb:1 ~span:2);
  check "slot skips the busy run" 4
    (Schedule.first_free_slot s ~pe:0 ~from:2 ~span:2);
  check "wide span before" 1 (Schedule.first_free_slot s ~pe:0 ~from:1 ~span:1);
  check "other processor" 1 (Schedule.first_free_slot s ~pe:3 ~from:0 ~span:4)

let test_first_free_slot_between_runs () =
  let s = Schedule.assign (empty ()) ~node:(node "A") ~cb:1 ~pe:0 in
  let s = Schedule.assign s ~node:(node "B") ~cb:4 ~pe:0 in
  (* gap cs2-3 fits span 2 but not span 3 *)
  check "fits gap" 2 (Schedule.first_free_slot s ~pe:0 ~from:1 ~span:2);
  check "too wide -> after" 6 (Schedule.first_free_slot s ~pe:0 ~from:1 ~span:3)

let test_first_row_and_shift () =
  let s = Schedule.assign (empty ()) ~node:(node "A") ~cb:1 ~pe:0 in
  let s = Schedule.assign s ~node:(node "C") ~cb:1 ~pe:1 in
  let s = Schedule.assign s ~node:(node "B") ~cb:2 ~pe:0 in
  Alcotest.(check (list int)) "first row" [ node "A"; node "C" ]
    (List.sort compare (Schedule.first_row s));
  check_bool "shift_up with row-1 nodes rejected" true
    (match Schedule.shift_up s with
    | exception Invalid_argument _ -> true
    | _ -> false);
  let s = Schedule.unassign_all s [ node "A"; node "C" ] in
  let s = Schedule.shift_up s in
  check "B moved up" 1 (Schedule.cb s (node "B"))

let test_normalize () =
  let s = Schedule.assign (empty ()) ~node:(node "A") ~cb:3 ~pe:0 in
  let s = Schedule.set_length s 9 in
  let s = Schedule.normalize s in
  check "A pulled to row 1" 1 (Schedule.cb s (node "A"));
  check "length clamped" 1 (Schedule.length s)

let test_set_length_too_small () =
  let s = Schedule.assign (empty ()) ~node:(node "B") ~cb:2 ~pe:0 in
  check_bool "cannot cut occupied rows" true
    (match Schedule.set_length s 2 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_signature_distinguishes () =
  let s1 = Schedule.assign (empty ()) ~node:(node "A") ~cb:1 ~pe:0 in
  let s2 = Schedule.assign (empty ()) ~node:(node "A") ~cb:1 ~pe:1 in
  check_bool "different signatures" true
    (Schedule.signature s1 <> Schedule.signature s2);
  check "equal to itself" 0 (Schedule.compare_assignments s1 s1)

(* ------------------------------------------------------------------ *)
(* Timing: edge cost, PSL, AN                                           *)
(* ------------------------------------------------------------------ *)

let schedule_pair ~pe_u ~cb_u ~pe_v ~cb_v =
  (* A -> C edge (delay 0, volume 1); D -> A edge (delay 3, volume 3). *)
  let s = Schedule.assign (empty ()) ~node:(node "A") ~cb:cb_u ~pe:pe_u in
  Schedule.assign s ~node:(node "C") ~cb:cb_v ~pe:pe_v

let find_edge src dst =
  List.find
    (fun e -> Csdfg.label fig1b e.G.src = src && Csdfg.label fig1b e.G.dst = dst)
    (Csdfg.edges fig1b)

let test_edge_cost () =
  let s = schedule_pair ~pe_u:0 ~cb_u:1 ~pe_v:2 ~cb_v:4 in
  check "A->C over the diagonal" 2 (Timing.edge_cost s (find_edge "A" "C"));
  let same = schedule_pair ~pe_u:1 ~cb_u:1 ~pe_v:1 ~cb_v:4 in
  check "same pe" 0 (Timing.edge_cost same (find_edge "A" "C"))

let test_edge_ok_intra_iteration () =
  (* A on pe1 ends at 1; C on pe2 needs cs >= 1 + 1*1 + 1 = 3. *)
  let tight = schedule_pair ~pe_u:0 ~cb_u:1 ~pe_v:1 ~cb_v:2 in
  check_bool "cs2 too early" false (Timing.edge_ok tight (find_edge "A" "C"));
  let ok = schedule_pair ~pe_u:0 ~cb_u:1 ~pe_v:1 ~cb_v:3 in
  check_bool "cs3 fine" true (Timing.edge_ok ok (find_edge "A" "C"))

let test_psl_zero_delay_edge_is_none () =
  let s = schedule_pair ~pe_u:0 ~cb_u:1 ~pe_v:1 ~cb_v:3 in
  check_bool "no PSL for d=0" true (Timing.psl_edge s (find_edge "A" "C") = None)

let test_psl_formula () =
  (* D -> A: delay 3, volume 3.  Put D on pe1 finishing at 2 and A on pe3
     (2 hops -> M = 6) starting at 1:
     PSL = ceil((6 + 2 - 1 + 1) / 3) = ceil(8/3) = 3. *)
  let s = Schedule.assign (empty ()) ~node:(node "D") ~cb:2 ~pe:0 in
  let s = Schedule.assign s ~node:(node "A") ~cb:1 ~pe:2 in
  (match Timing.psl_edge s (find_edge "D" "A") with
  | Some v -> check "psl" 3 v
  | None -> Alcotest.fail "delayed edge has a PSL");
  (* Legal exactly from the PSL on. *)
  let s3 = Schedule.set_length s 3 in
  check_bool "legal at PSL" true (Timing.edge_ok s3 (find_edge "D" "A"));
  let s2 = Schedule.set_length s 2 in
  check_bool "illegal below PSL" false (Timing.edge_ok s2 (find_edge "D" "A"))

let test_required_length () =
  let s = Schedule.assign (empty ()) ~node:(node "D") ~cb:5 ~pe:0 in
  let s = Schedule.assign s ~node:(node "A") ~cb:1 ~pe:2 in
  (* rows = 5 dominates the PSL of 4 *)
  check "required" 5 (Timing.required_length s)

let test_zero_delay_violations () =
  let bad = schedule_pair ~pe_u:0 ~cb_u:1 ~pe_v:1 ~cb_v:2 in
  check "one violation" 1 (List.length (Timing.zero_delay_violations bad));
  let good = schedule_pair ~pe_u:0 ~cb_u:1 ~pe_v:1 ~cb_v:3 in
  check "none" 0 (List.length (Timing.zero_delay_violations good))

(* AN over the node's assigned producers, gathered as the remapper
   gathers them. *)
let anticipation s ~node ~pe ~target_length =
  Timing.anticipation (Schedule.comm s) ~pe ~target_length
    (Cyclo.Remap.neighbourhood s node).preds

let test_anticipation_zero_delay_pred () =
  (* C's predecessor A on pe1 finishing at 1: AN on pe2 = 1 + 1 + 1 = 3
     (delay 0 ignores the target length). *)
  let s = Schedule.assign (empty ()) ~node:(node "A") ~cb:1 ~pe:0 in
  check "an pe2" 3
    (anticipation s ~node:(node "C") ~pe:1 ~target_length:6);
  check "an same pe" 2
    (anticipation s ~node:(node "C") ~pe:0 ~target_length:6)

let test_anticipation_delayed_pred () =
  (* A's predecessor D (delay 3): huge inter-iteration slack clamps AN
     to 1. *)
  let s = Schedule.assign (empty ()) ~node:(node "D") ~cb:4 ~pe:0 in
  check "clamped" 1
    (anticipation s ~node:(node "A") ~pe:3 ~target_length:6)

let test_anticipation_unassigned_pred_skipped () =
  let s = empty () in
  check "no info -> 1"
    1
    (anticipation s ~node:(node "E") ~pe:0 ~target_length:6)

let test_anticipation_tight_delayed_pred () =
  (* Small target length makes the delayed edge bind: D on pe1 ends 4,
     volume 3 over 2 hops = 6; AN = 6 + 4 + 1 - 3*target. *)
  let s = Schedule.assign (empty ()) ~node:(node "D") ~cb:4 ~pe:0 in
  check "binding" 2
    (anticipation s ~node:(node "A") ~pe:2 ~target_length:3)

let () =
  Alcotest.run "schedule"
    [
      ( "comm",
        [
          Alcotest.test_case "of_topology" `Quick test_comm_of_topology;
          Alcotest.test_case "zero" `Quick test_comm_zero;
          Alcotest.test_case "scaled" `Quick test_comm_scaled;
          Alcotest.test_case "uniform" `Quick test_comm_uniform;
          Alcotest.test_case "out of range" `Quick test_comm_out_of_range;
        ] );
      ( "table",
        [
          Alcotest.test_case "empty" `Quick test_empty_schedule;
          Alcotest.test_case "assign" `Quick test_assign_basics;
          Alcotest.test_case "overlap" `Quick test_assign_overlap_rejected;
          Alcotest.test_case "double assign" `Quick test_assign_twice_rejected;
          Alcotest.test_case "cb >= 1" `Quick test_assign_cb_zero_rejected;
          Alcotest.test_case "unassign" `Quick test_unassign;
          Alcotest.test_case "node_at multicycle" `Quick test_node_at_multicycle;
          Alcotest.test_case "is_free / slots" `Quick test_is_free_and_slots;
          Alcotest.test_case "slot between runs" `Quick
            test_first_free_slot_between_runs;
          Alcotest.test_case "first row / shift" `Quick test_first_row_and_shift;
          Alcotest.test_case "normalize" `Quick test_normalize;
          Alcotest.test_case "set_length guard" `Quick test_set_length_too_small;
          Alcotest.test_case "signatures" `Quick test_signature_distinguishes;
        ] );
      ( "timing",
        [
          Alcotest.test_case "edge cost" `Quick test_edge_cost;
          Alcotest.test_case "intra-iteration rule" `Quick
            test_edge_ok_intra_iteration;
          Alcotest.test_case "psl none for d=0" `Quick
            test_psl_zero_delay_edge_is_none;
          Alcotest.test_case "psl formula" `Quick test_psl_formula;
          Alcotest.test_case "required length" `Quick test_required_length;
          Alcotest.test_case "zero-delay violations" `Quick
            test_zero_delay_violations;
          Alcotest.test_case "AN zero-delay pred" `Quick
            test_anticipation_zero_delay_pred;
          Alcotest.test_case "AN delayed pred clamps" `Quick
            test_anticipation_delayed_pred;
          Alcotest.test_case "AN unassigned pred" `Quick
            test_anticipation_unassigned_pred_skipped;
          Alcotest.test_case "AN delayed pred binds" `Quick
            test_anticipation_tight_delayed_pred;
        ] );
    ]
