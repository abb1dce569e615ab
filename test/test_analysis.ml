(* Decision journal + Analysis: enabling the journal leaves schedules
   byte-identical to the goldens; the fig7 / mesh-2x4 startup journal
   contains the hand-computed communication-bound rejection (node D
   refused pe2 at step 2 because A's volume-2 message needs
   1 hop x 2 = 2 steps on the wire); Placed events agree with the
   startup table; and the report invariants hold (traffic conservation
   across links, utilization, binding-constraint attribution). *)

module Csdfg = Dataflow.Csdfg
module Journal = Obs.Journal
module Analysis = Cyclo.Analysis
module Schedule = Cyclo.Schedule
module Comm = Cyclo.Comm
module Compaction = Cyclo.Compaction
module Timing = Cyclo.Timing
module G = Digraph.Graph

(* Golden signatures from test_golden_signatures.ml. *)
let fig7_mesh2x4_startup =
  "13;1@0;2@0;3@1;4@4;6@5;5@4;4@0;3@0;6@0;7@4;7@0;9@4;7@5;8@0;9@0;10@0;11@4;8@5;13@4"

let fig7_mesh2x4_best =
  "6;1@0;3@4;3@1;4@4;5@4;1@5;2@2;6@1;3@2;3@5;4@2;5@5;6@4;5@2;2@0;3@0;2@1;1@4;5@0"

let fig7 () =
  match Dataflow.Io.read_file ~path:"../data/fig7.csdfg" with
  | Ok g -> g
  | Error e -> Alcotest.fail (Dataflow.Io.error_to_string e)

let mesh2x4 () = Topology.mesh ~rows:2 ~cols:4

(* Node ids in fig7: A=0 B=1 C=2 D=3 ... (declaration order). *)
let node_d = 3

let journaled_run () =
  Journal.enable ();
  let r = Compaction.run_on ~validate:false (fig7 ()) (mesh2x4 ()) in
  Journal.disable ();
  let events = Journal.events () in
  Journal.reset ();
  (r, events)

let test_byte_identical_with_journal () =
  let r, events = journaled_run () in
  Alcotest.(check string)
    "startup signature unchanged by the journal" fig7_mesh2x4_startup
    (Schedule.signature r.Compaction.startup);
  Alcotest.(check string)
    "best signature unchanged by the journal" fig7_mesh2x4_best
    (Schedule.signature r.Compaction.best);
  Alcotest.(check bool) "journal captured events" true (events <> [])

let test_comm_bound_hand_computed () =
  let _, events = journaled_run () in
  (* D becomes ready at step 2 (A runs at step 1 on pe1).  On any other
     processor A's volume-2 message is still on the wire: for pe2 (one
     mesh hop away) the store-and-forward cost is 1 hop x volume 2 = 2
     steps, so the journal must carry exactly that rejection. *)
  let expected_cost =
    Comm.cost (Comm.of_topology (mesh2x4 ())) ~src:0 ~dst:1 ~volume:2
  in
  Alcotest.(check int) "hand-computed store-and-forward cost" 2 expected_cost;
  let found =
    List.exists
      (function
        | Journal.Candidate
            {
              node;
              cs = 2;
              pe = 1;
              reason = Journal.Comm_bound { pred = 0; hops; volume };
            } ->
            node = node_d && hops * volume = expected_cost
        | _ -> false)
      events
  in
  Alcotest.(check bool) "D rejected on pe2 at step 2: comm-bound by A" true
    found;
  (* same step, pe1: the slot was free but B (sorted ahead by PF) took
     it — a pure tie-break loss *)
  let tiebreak =
    List.exists
      (function
        | Journal.Candidate
            { node; cs = 2; pe = 0; reason = Journal.Mobility { winner = 1 } }
          ->
            node = node_d
        | _ -> false)
      events
  in
  Alcotest.(check bool) "D lost pe1 at step 2 to B" true tiebreak;
  (* step 4, pe2: C (a two-cycle node placed at step 3) still runs *)
  let occupied =
    List.exists
      (function
        | Journal.Candidate
            { node; cs = 4; pe = 1; reason = Journal.Occupied { holder = 2 } }
          ->
            node = node_d
        | _ -> false)
      events
  in
  Alcotest.(check bool) "D found pe2 occupied by C at step 4" true occupied

let test_placed_events_match_startup () =
  let r, events = journaled_run () in
  let startup = r.Compaction.startup in
  let placed =
    List.filter_map
      (function
        | Journal.Placed { node; cs; pe; arrival; _ } ->
            Some (node, cs, pe, arrival)
        | _ -> None)
      events
  in
  Alcotest.(check int) "one Placed event per node"
    (Csdfg.n_nodes (fig7 ()))
    (List.length placed);
  List.iter
    (fun (node, cs, pe, arrival) ->
      Alcotest.(check int) "Placed.cs is the startup CB"
        (Schedule.cb startup node) cs;
      Alcotest.(check int) "Placed.pe is the startup PE"
        (Schedule.pe startup node) pe;
      Alcotest.(check bool) "placed strictly after its data arrived" true
        (arrival < cs))
    placed

let test_report_invariants () =
  let r, events = journaled_run () in
  let best = r.Compaction.best in
  let topo = mesh2x4 () in
  let rep = Analysis.report ~topo ~journal:events ~k:5 best in
  Alcotest.(check int) "length" 6 rep.Analysis.length;
  Alcotest.(check (option int)) "iteration bound" (Some 4) rep.Analysis.bound;
  Alcotest.(check (option int)) "gap" (Some 2) rep.Analysis.gap;
  (* store-and-forward conservation: total routed link volume equals
     hops x volume summed over cross edges, i.e. the comm cost *)
  (match rep.Analysis.links with
  | None -> Alcotest.fail "report built with ~topo must carry link traffic"
  | Some links ->
      let total = List.fold_left (fun acc (_, v) -> acc + v) 0 links in
      Alcotest.(check int) "link volumes sum to the comm cost"
        rep.Analysis.comm_cost total;
      List.iter
        (fun ((a, b), v) ->
          Alcotest.(check bool) "traffic only on physical links" true
            (Topology.hops topo a b = 1);
          Alcotest.(check bool) "positive volume" true (v > 0))
        links);
  (* the traffic matrix holds every cross edge's volume exactly once *)
  let g = Schedule.dfg best in
  let expected_volume =
    List.fold_left
      (fun acc (e : Csdfg.attr G.edge) ->
        if Schedule.pe best e.G.src <> Schedule.pe best e.G.dst then
          acc + Csdfg.volume e
        else acc)
      0 (Csdfg.edges g)
  in
  let matrix_total =
    Array.fold_left (Array.fold_left ( + )) 0 rep.Analysis.traffic
  in
  Alcotest.(check int) "traffic matrix total" expected_volume matrix_total;
  (* per-PE occupancy covers exactly the nodes' durations *)
  let busy_total =
    List.fold_left (fun acc u -> acc + u.Analysis.busy) 0 rep.Analysis.per_pe
  in
  let duration_total =
    List.fold_left
      (fun acc v ->
        acc + Schedule.duration best ~node:v ~pe:(Schedule.pe best v))
      0 (Csdfg.nodes g)
  in
  Alcotest.(check int) "busy cells = sum of durations" duration_total
    busy_total;
  List.iter
    (fun u ->
      Alcotest.(check int) "timeline spans the table" rep.Analysis.length
        (String.length u.Analysis.timeline);
      Alcotest.(check int) "busy = # marks in the timeline" u.Analysis.busy
        (String.fold_left
           (fun acc c -> if c = '#' then acc + 1 else acc)
           0 u.Analysis.timeline))
    rep.Analysis.per_pe;
  (* binding attribution agrees with Timing.required_length *)
  (match rep.Analysis.binding with
  | Analysis.Rows { last } ->
      Alcotest.(check int) "Rows binding = required length"
        (Timing.required_length best) last
  | Analysis.Delayed_edge { psl; _ } ->
      Alcotest.(check int) "edge PSL = required length"
        (Timing.required_length best) psl);
  (* fig7's best schedule is pinned by a delayed edge at PSL 6 *)
  (match rep.Analysis.binding with
  | Analysis.Delayed_edge { psl = 6; _ } -> ()
  | b ->
      Alcotest.failf "expected a PSL-6 delayed-edge binding, got %a"
        (Obs.Journal.pp_binding ?label:None)
        b);
  (* The critical cycle is the witness on the retimed graph the table
     runs: on the compacted lattice filter it moves with the retiming. *)
  let lattice =
    (Compaction.run_on Workloads.Filters.lattice topo).Compaction.best
  in
  Alcotest.(check (option (list string)))
    "lattice critical cycle"
    (Some [ "af1"; "mb1"; "ab1"; "mf2"; "af2" ])
    (Option.map
       (List.map (Csdfg.label (Schedule.dfg lattice)))
       (Analysis.report lattice).Analysis.critical_cycle);
  Alcotest.(check bool) "journal yields blocking nodes" true
    (rep.Analysis.blocking_nodes <> []);
  List.iter
    (fun b ->
      Alcotest.(check int) "rejection tallies add up" b.Analysis.rejections
        (b.Analysis.comm_bound + b.Analysis.occupied + b.Analysis.tiebreak))
    rep.Analysis.blocking_nodes

let test_explain () =
  let r, events = journaled_run () in
  let best = r.Compaction.best in
  let x = Analysis.explain ~journal:events best ~node:node_d in
  (match x.Analysis.placed with
  | Some (Journal.Placed { cs = 4; pe = 4; _ }) -> ()
  | _ -> Alcotest.fail "D's startup Placed event missing or wrong");
  let comm_bound_rejections =
    List.filter
      (function
        | Journal.Candidate { reason = Journal.Comm_bound _; _ } -> true
        | _ -> false)
      x.Analysis.rejected
  in
  Alcotest.(check bool) "at least one comm-bound rejection" true
    (comm_bound_rejections <> []);
  (match x.Analysis.entry with
  | Some { Schedule.cb = 4; pe = 4 } -> ()
  | _ -> Alcotest.fail "D's final slot should be cs 4 on pe 4 (0-based)");
  Alcotest.(check bool) "D was retimed by compaction" true
    (x.Analysis.rotations > 0);
  let rendered = Fmt.str "%a" Analysis.pp_explanation x in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "explanation mentions %S" needle)
        true
        (let ln = String.length needle and n = String.length rendered in
         let rec go i =
           i + ln <= n && (String.sub rendered i ln = needle || go (i + 1))
         in
         go 0))
    [ "node D"; "comm-bound by A"; "volume 2"; "final slot" ]

let test_explain_without_journal () =
  let r = Compaction.run_on ~validate:false (fig7 ()) (mesh2x4 ()) in
  let x = Analysis.explain r.Compaction.best ~node:node_d in
  Alcotest.(check bool) "no events" true
    (x.Analysis.placed = None && x.Analysis.rejected = []);
  (match x.Analysis.entry with
  | Some _ -> ()
  | None -> Alcotest.fail "final slot must still be reported");
  Alcotest.check_raises "out-of-range node rejected"
    (Invalid_argument "Analysis.explain: node out of range") (fun () ->
      ignore (Analysis.explain r.Compaction.best ~node:99))

let test_traffic_svg () =
  let r = Compaction.run_on ~validate:false (fig7 ()) (mesh2x4 ()) in
  let svg = Analysis.traffic_svg r.Compaction.best in
  let starts_with prefix s =
    String.length s >= String.length prefix
    && String.sub s 0 (String.length prefix) = prefix
  in
  let ends_with suffix s =
    String.length s >= String.length suffix
    && String.sub s
         (String.length s - String.length suffix)
         (String.length suffix)
       = suffix
  in
  Alcotest.(check bool) "starts with <svg" true (starts_with "<svg" svg);
  Alcotest.(check bool) "well-terminated" true (ends_with "</svg>\n" svg)

let () =
  Alcotest.run "analysis"
    [
      ( "journal",
        [
          Alcotest.test_case "schedules byte-identical" `Quick
            test_byte_identical_with_journal;
          Alcotest.test_case "hand-computed comm-bound rejection" `Quick
            test_comm_bound_hand_computed;
          Alcotest.test_case "Placed events match the table" `Quick
            test_placed_events_match_startup;
        ] );
      ( "report",
        [ Alcotest.test_case "invariants on fig7" `Quick test_report_invariants ]
      );
      ( "explain",
        [
          Alcotest.test_case "node D provenance" `Quick test_explain;
          Alcotest.test_case "journal-free fallback" `Quick
            test_explain_without_journal;
        ] );
      ( "svg",
        [ Alcotest.test_case "traffic heatmap shape" `Quick test_traffic_svg ]
      );
    ]
