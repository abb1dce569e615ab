(* Tests for the event-driven machine simulator: the executable model
   must agree with the analytical one under the paper's assumptions, and
   quantify the gap when they are relaxed. *)

module Csdfg = Dataflow.Csdfg
module Schedule = Cyclo.Schedule
module Sim = Machine.Simulator

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let paper_mesh () =
  Topology.relabel (Topology.mesh ~rows:2 ~cols:2)
    Workloads.Examples.fig1_mesh_permutation

let compacted g topo =
  (Cyclo.Compaction.run_on g topo).Cyclo.Compaction.best

let test_static_bound_formula () =
  let s = Cyclo.Startup.run_on Workloads.Examples.fig1b (paper_mesh ()) in
  (* length 7, max CE 7 *)
  check "1 iteration" 7 (Sim.static_bound s ~iterations:1);
  check "10 iterations" (63 + 7) (Sim.static_bound s ~iterations:10)

let test_contention_free_meets_static_bound () =
  (* Self-timed execution of a legal schedule can never be slower than
     the static promise under the paper's contention-free model. *)
  List.iter
    (fun (name, g) ->
      List.iter
        (fun topo ->
          let s = compacted g topo in
          let stats = Sim.execute s topo ~iterations:12 in
          Alcotest.(check bool)
            (Printf.sprintf "%s on %s within bound" name (Topology.name topo))
            true
            (stats.Sim.makespan <= Sim.static_bound s ~iterations:12))
        [ Topology.ring 4; Topology.mesh ~rows:2 ~cols:2 ])
    [
      ("fig1b", Workloads.Examples.fig1b);
      ("fig7", Workloads.Examples.fig7);
      ("diffeq", Workloads.Dsp.diffeq);
    ]

let test_period_matches_schedule_length () =
  let g = Workloads.Examples.fig7 in
  let topo = Topology.mesh ~rows:2 ~cols:4 in
  let s = compacted g topo in
  let stats = Sim.execute s topo ~iterations:50 in
  Alcotest.(check (float 0.26)) "sustained period ~= length"
    (float_of_int (Schedule.length s))
    stats.Sim.average_period;
  check_bool "slowdown <= 1 under the paper's model" true
    (Sim.slowdown stats s <= 1.0 +. 1e-9)

let test_fifo_never_faster_than_free () =
  List.iter
    (fun (name, g) ->
      let topo = Topology.linear_array 4 in
      let s = compacted g topo in
      let free = Sim.execute ~policy:Sim.Contention_free s topo ~iterations:20 in
      let fifo = Sim.execute ~policy:Sim.Fifo_links s topo ~iterations:20 in
      Alcotest.(check bool)
        (name ^ ": fifo >= free")
        true
        (fifo.Sim.makespan >= free.Sim.makespan);
      check (name ^ ": same messages") free.Sim.messages fifo.Sim.messages;
      check (name ^ ": same hops") free.Sim.message_hops fifo.Sim.message_hops;
      check (name ^ ": free has no backlog") 0 free.Sim.max_link_backlog)
    [ ("fig7", Workloads.Examples.fig7); ("fig1b", Workloads.Examples.fig1b) ]

let test_fifo_contention_degrades_saturated_link () =
  (* Three producers on one star leaf each ship volume 4 to consumers on
     the other leaf every iteration: 12 busy units per iteration through
     the hub link, against a table of length 9.  The contention-free
     model sustains period 9; single-channel FIFO links cannot. *)
  let g =
    Csdfg.make ~name:"hub-jam"
      ~nodes:[ ("P1", 1); ("P2", 1); ("P3", 1); ("C1", 1); ("C2", 1); ("C3", 1) ]
      ~edges:
        [
          ("P1", "C1", 1, 4); ("C1", "P1", 1, 1);
          ("P2", "C2", 1, 4); ("C2", "P2", 1, 1);
          ("P3", "C3", 1, 4); ("C3", "P3", 1, 1);
        ]
  in
  let topo = Topology.star 3 in
  let s = Schedule.empty g (Cyclo.Comm.of_topology topo) in
  let place s l cb pe = Schedule.assign s ~node:(Csdfg.node_of_label g l) ~cb ~pe in
  let s = place s "P1" 1 1 in
  let s = place s "P2" 2 1 in
  let s = place s "P3" 3 1 in
  let s = place s "C1" 1 2 in
  let s = place s "C2" 2 2 in
  let s = place s "C3" 3 2 in
  let s = Schedule.set_length s (Cyclo.Timing.required_length s) in
  check "PSL-padded length" 9 (Schedule.length s);
  Cyclo.Validator.assert_legal s;
  let free = Sim.execute ~policy:Sim.Contention_free s topo ~iterations:30 in
  let fifo = Sim.execute ~policy:Sim.Fifo_links s topo ~iterations:30 in
  (* Self-timed execution with free channels beats the static table
     (period 6 < 9); serialising the hub link costs several steps per
     iteration and builds a queue. *)
  check_bool "model beats the static period" true
    (free.Sim.average_period <= 9.0 +. 1e-9);
  check_bool "FIFO strictly slower" true
    (fifo.Sim.average_period > free.Sim.average_period +. 1.0);
  check_bool "FIFO makespan strictly larger" true
    (fifo.Sim.makespan > free.Sim.makespan);
  check_bool "messages queue on the hub link" true
    (fifo.Sim.max_link_backlog >= 2)

let test_wormhole_cost_model () =
  let topo = Topology.linear_array 4 in
  let c = Cyclo.Comm.wormhole topo in
  (* 3 hops, volume 5: header 3 + 4 trailing flits = 7, vs SAF 15 *)
  check "wormhole cost" 7 (Cyclo.Comm.cost c ~src:0 ~dst:3 ~volume:5);
  check "same pe" 0 (Cyclo.Comm.cost c ~src:2 ~dst:2 ~volume:5);
  (* pointwise never more expensive than store-and-forward *)
  let saf = Cyclo.Comm.of_topology topo in
  for p = 0 to 3 do
    for q = 0 to 3 do
      for v = 1 to 4 do
        check_bool "wormhole <= saf" true
          (Cyclo.Comm.cost c ~src:p ~dst:q ~volume:v
          <= Cyclo.Comm.cost saf ~src:p ~dst:q ~volume:v)
      done
    done
  done

let test_wormhole_schedule_executes () =
  let g = Workloads.Examples.fig7 in
  let topo = Topology.linear_array 8 in
  let r = Cyclo.Compaction.run g (Cyclo.Comm.wormhole topo) in
  let best = r.Cyclo.Compaction.best in
  check_bool "legal" true (Cyclo.Validator.is_legal best);
  let stats =
    Sim.execute ~transport:Sim.Wormhole best topo ~iterations:25
  in
  check_bool "within static bound" true
    (stats.Sim.makespan <= Sim.static_bound best ~iterations:25);
  check_bool "sustains the period" true (Sim.slowdown stats best <= 1.0 +. 1e-9)

let test_wormhole_fifo_not_faster () =
  let g = Workloads.Examples.fig7 in
  let topo = Topology.linear_array 8 in
  let r = Cyclo.Compaction.run g (Cyclo.Comm.wormhole topo) in
  let best = r.Cyclo.Compaction.best in
  let free =
    Sim.execute ~transport:Sim.Wormhole ~policy:Sim.Contention_free best topo
      ~iterations:20
  in
  let fifo =
    Sim.execute ~transport:Sim.Wormhole ~policy:Sim.Fifo_links best topo
      ~iterations:20
  in
  check_bool "reserved paths never faster" true
    (fifo.Sim.makespan >= free.Sim.makespan)

let test_with_comm_recosting () =
  (* A store-and-forward schedule re-costed under wormhole stays legal
     and never needs a longer table. *)
  let g = Workloads.Examples.fig7 in
  let topo = Topology.linear_array 8 in
  let saf = compacted g topo in
  let recosted = Schedule.with_comm saf (Cyclo.Comm.wormhole topo) in
  let recosted =
    Schedule.set_length recosted (Cyclo.Timing.required_length recosted)
  in
  check_bool "legal under cheaper costs" true (Cyclo.Validator.is_legal recosted);
  check_bool "no longer than before" true
    (Schedule.length recosted <= Schedule.length saf);
  check_bool "processor count checked" true
    (match Schedule.with_comm saf (Cyclo.Comm.zero ~n:3 ~name:"z") with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_single_processor_no_messages () =
  let g = Workloads.Examples.fig1b in
  let topo = Topology.linear_array 1 in
  let s = Cyclo.Startup.run_on g topo in
  let stats = Sim.execute s topo ~iterations:5 in
  check "no messages" 0 stats.Sim.messages;
  check "makespan = 5 * total time" (5 * Csdfg.total_time g) stats.Sim.makespan;
  Alcotest.(check (float 1e-9)) "full utilization" 1.0 stats.Sim.utilization

let test_self_loop_instance_chain () =
  (* X (t=2) with a unit-delay self-dependence: iterations strictly
     serialize; makespan = 2 * iterations. *)
  let g = Workloads.Examples.self_loop in
  let topo = Topology.linear_array 1 in
  let s = Cyclo.Startup.run_on g topo in
  let stats = Sim.execute s topo ~iterations:7 in
  check "serialized" 14 stats.Sim.makespan

let test_busy_accounting () =
  let g = Workloads.Examples.fig7 in
  let topo = Topology.complete 8 in
  let s = compacted g topo in
  let stats = Sim.execute s topo ~iterations:10 in
  let total = Array.fold_left ( + ) 0 stats.Sim.busy in
  check "busy = 10 * total work" (10 * Csdfg.total_time g) total

let test_message_count_formula () =
  (* Cross-processor deliveries: one per edge instance whose consumer
     iteration lands inside the run. *)
  let g = Workloads.Examples.fig1b in
  let topo = paper_mesh () in
  let s = compacted g topo in
  let iterations = 9 in
  (* count against the schedule's own (retimed) graph *)
  let expected =
    List.fold_left
      (fun acc e ->
        let cross =
          Schedule.pe s e.Digraph.Graph.src <> Schedule.pe s e.Digraph.Graph.dst
        in
        if cross then acc + max 0 (iterations - Schedule.delay s e) else acc)
      0
      (Csdfg.edges (Schedule.dfg s))
  in
  let stats = Sim.execute s topo ~iterations in
  check "messages" expected stats.Sim.messages

let test_weighted_topology_execution () =
  (* Two processors joined by a latency-3 link: a volume-1 message takes
     3 steps, matching the analytical model. *)
  let topo = Topology.of_weighted_links ~name:"slow-pair" ~n:2 [ (0, 1, 3) ] in
  let g = Workloads.Examples.tiny_chain in
  let r = Cyclo.Compaction.run_on g topo in
  let s = r.Cyclo.Compaction.best in
  let stats = Sim.execute s topo ~iterations:10 in
  check_bool "still meets static bound" true
    (stats.Sim.makespan <= Sim.static_bound s ~iterations:10)

let test_illegal_schedule_deadlocks () =
  (* B scheduled before its zero-delay producer A on the same processor:
     in-order issue can never satisfy B's input — the engine reports a
     deadlock instead of hanging or producing garbage. *)
  let g =
    Csdfg.make ~name:"dl" ~nodes:[ ("A", 1); ("B", 1) ]
      ~edges:[ ("A", "B", 0, 1); ("B", "A", 1, 1) ]
  in
  let topo = Topology.linear_array 1 in
  let s = Schedule.empty g (Cyclo.Comm.of_topology topo) in
  let s = Schedule.assign s ~node:1 ~cb:1 ~pe:0 in
  let s = Schedule.assign s ~node:0 ~cb:2 ~pe:0 in
  check_bool "validator flags it" false (Cyclo.Validator.is_legal s);
  check_bool "simulator reports deadlock" true
    (match Sim.execute s topo ~iterations:3 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_rejects_bad_inputs () =
  let g = Workloads.Examples.fig1b in
  let topo = paper_mesh () in
  let s = Cyclo.Startup.run_on g topo in
  check_bool "iterations < 1" true
    (match Sim.execute s topo ~iterations:0 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check_bool "topology mismatch" true
    (match Sim.execute s (Topology.linear_array 2) ~iterations:3 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  let incomplete = Schedule.unassign s (Csdfg.node_of_label g "A") in
  check_bool "incomplete schedule" true
    (match Sim.execute incomplete topo ~iterations:3 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_all_workloads_simulate () =
  List.iter
    (fun (name, g) ->
      let topo = Topology.hypercube 3 in
      let s = compacted g topo in
      let stats = Sim.execute s topo ~iterations:8 in
      Alcotest.(check bool)
        (name ^ " within static bound")
        true
        (stats.Sim.makespan <= Sim.static_bound s ~iterations:8))
    (Workloads.Suite.all ())

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                     *)
(* ------------------------------------------------------------------ *)

module Events = Machine.Events
module Audit = Machine.Audit
module Timeline = Machine.Timeline

let stats_equal a b =
  a.Sim.policy = b.Sim.policy
  && a.Sim.transport = b.Sim.transport
  && a.Sim.iterations = b.Sim.iterations
  && a.Sim.makespan = b.Sim.makespan
  && a.Sim.average_period = b.Sim.average_period
  && a.Sim.messages = b.Sim.messages
  && a.Sim.message_hops = b.Sim.message_hops
  && a.Sim.max_link_backlog = b.Sim.max_link_backlog
  && a.Sim.busy = b.Sim.busy
  && a.Sim.per_pe_utilization = b.Sim.per_pe_utilization
  && a.Sim.utilization = b.Sim.utilization

let test_recorder_tallies_match_stats () =
  (* Every policy/transport combination: the recorded stream must agree
     event-for-event with the aggregate stats. *)
  let g = Workloads.Examples.fig7 in
  let topo = Topology.mesh ~rows:2 ~cols:4 in
  let iterations = 12 in
  List.iter
    (fun (name, policy, transport) ->
      let s =
        match transport with
        | Sim.Store_and_forward -> compacted g topo
        | Sim.Wormhole ->
            (Cyclo.Compaction.run g (Cyclo.Comm.wormhole topo))
              .Cyclo.Compaction.best
      in
      let rec_ = Events.recorder () in
      let stats =
        Sim.execute ~policy ~transport ~recorder:rec_ s topo ~iterations
      in
      let evs = Events.events rec_ in
      check (name ^ ": deliveries = messages") stats.Sim.messages
        (Events.deliveries evs);
      check (name ^ ": hop events = message_hops") stats.Sim.message_hops
        (Events.hops evs);
      let n_inst = Csdfg.n_nodes (Schedule.dfg s) * iterations in
      let count p = List.length (List.filter p evs) in
      check (name ^ ": every instance starts") n_inst
        (count (function Events.Instance_start _ -> true | _ -> false));
      check (name ^ ": every instance finishes") n_inst
        (count (function Events.Instance_finish _ -> true | _ -> false));
      check (name ^ ": sends = deliveries") stats.Sim.messages
        (count (function Events.Msg_send _ -> true | _ -> false)))
    [
      ("free/saf", Sim.Contention_free, Sim.Store_and_forward);
      ("fifo/saf", Sim.Fifo_links, Sim.Store_and_forward);
      ("free/worm", Sim.Contention_free, Sim.Wormhole);
      ("fifo/worm", Sim.Fifo_links, Sim.Wormhole);
    ]

let test_recording_is_observational () =
  (* A run with the recorder attached returns byte-identical stats to a
     run without it — the recorder must never perturb the simulation. *)
  let g = Workloads.Dsp.correlator ~lags:4 in
  let topo = Topology.linear_array 8 in
  let s = compacted g topo in
  List.iter
    (fun policy ->
      let plain = Sim.execute ~policy s topo ~iterations:20 in
      let rec_ = Events.recorder () in
      let recorded =
        Sim.execute ~policy ~recorder:rec_ s topo ~iterations:20
      in
      check_bool "identical stats" true (stats_equal plain recorded);
      check_bool "something was recorded" true (Events.count rec_ > 0))
    [ Sim.Contention_free; Sim.Fifo_links ]

let test_busy_array_is_a_copy () =
  (* The satellite fix: stats.busy used to alias the simulator's
     internal accumulator. *)
  let g = Workloads.Examples.fig7 in
  let topo = Topology.complete 8 in
  let s = compacted g topo in
  let a = Sim.execute s topo ~iterations:5 in
  let expected = Array.copy a.Sim.busy in
  a.Sim.busy.(0) <- -12345;
  let b = Sim.execute s topo ~iterations:5 in
  check "fresh run unaffected by caller mutation" expected.(0) b.Sim.busy.(0);
  check_bool "whole array matches" true (b.Sim.busy = expected)

let test_per_pe_utilization () =
  let g = Workloads.Examples.fig7 in
  let topo = Topology.mesh ~rows:2 ~cols:4 in
  let s = compacted g topo in
  let stats = Sim.execute s topo ~iterations:10 in
  check "one entry per processor" (Topology.n_processors topo)
    (Array.length stats.Sim.per_pe_utilization);
  Array.iteri
    (fun p u ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "pe%d utilization = busy / makespan" (p + 1))
        (float_of_int stats.Sim.busy.(p) /. float_of_int stats.Sim.makespan)
        u)
    stats.Sim.per_pe_utilization;
  let mean =
    Array.fold_left ( +. ) 0. stats.Sim.per_pe_utilization
    /. float_of_int (Array.length stats.Sim.per_pe_utilization)
  in
  Alcotest.(check (float 1e-9))
    "mean of per-PE = aggregate" stats.Sim.utilization mean

let test_stall_counters_and_histograms () =
  Obs.Counters.enable ();
  Fun.protect
    ~finally:(fun () -> Obs.Counters.disable ())
    (fun () ->
      let g = Workloads.Dsp.correlator ~lags:4 in
      let topo = Topology.linear_array 8 in
      let s = compacted g topo in
      let stats =
        Sim.execute ~policy:Sim.Fifo_links s topo ~iterations:40
      in
      check_bool "contended run counts stalls" true
        (Obs.Counters.value (Obs.Counters.counter "simulator.stalls") > 0);
      check "backlog gauge mirrors stats" stats.Sim.max_link_backlog
        (Obs.Counters.value
           (Obs.Counters.counter "simulator.max_link_backlog"));
      let latency = Obs.Histogram.histogram "simulator.msg_latency" in
      check "one latency sample per delivery" stats.Sim.messages
        (Obs.Histogram.count latency);
      let slip = Obs.Histogram.histogram "simulator.instance_slip" in
      check "one slip sample per instance"
        (Csdfg.n_nodes (Schedule.dfg s) * 40)
        (Obs.Histogram.count slip))

let test_jsonl_export_well_formed () =
  let g = Workloads.Examples.fig7 in
  let topo = Topology.mesh ~rows:2 ~cols:4 in
  let s = compacted g topo in
  let rec_ = Events.recorder () in
  let _ =
    Sim.execute ~policy:Sim.Fifo_links ~recorder:rec_ s topo ~iterations:6
  in
  let evs = Events.events rec_ in
  let lines =
    String.split_on_char '\n' (Events.to_jsonl evs)
    |> List.filter (fun l -> l <> "")
  in
  check "header + one line per event" (1 + Events.count rec_)
    (List.length lines);
  List.iteri
    (fun i line ->
      match Obs.Json.parse line with
      | Ok json ->
          if i = 0 then
            Alcotest.(check (option string))
              "schema header" (Some "ccsched-sim-events/2")
              (Option.bind (Obs.Json.member "schema" json) Obs.Json.to_str)
          else
            check_bool "has ev discriminator" true
              (Option.is_some (Obs.Json.member "ev" json))
      | Error msg -> Alcotest.failf "line %d unparseable: %s" i msg)
    lines;
  (* times are non-decreasing in the export *)
  let times =
    List.filter_map
      (fun l ->
        match Obs.Json.parse l with
        | Ok json -> Option.bind (Obs.Json.member "t" json) Obs.Json.to_int
        | Error _ -> None)
      lines
  in
  check_bool "sorted by time" true
    (List.for_all2 (fun a b -> a <= b)
       (List.filteri (fun i _ -> i < List.length times - 1) times)
       (List.tl times))

let test_timeline_views () =
  let g = Workloads.Examples.fig7 in
  let topo = Topology.mesh ~rows:2 ~cols:4 in
  let s = compacted g topo in
  let rec_ = Events.recorder () in
  let _ =
    Sim.execute ~policy:Sim.Fifo_links ~recorder:rec_ s topo ~iterations:4
  in
  let evs = Events.events rec_ in
  let np = Topology.n_processors topo in
  let svg = Timeline.to_svg ~np evs in
  check_bool "svg prologue" true
    (String.length svg > 5 && String.sub svg 0 4 = "<svg");
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  check_bool "has pe lanes" true (contains svg "pe1");
  check_bool "has message arrows" true (contains svg "marker-end");
  let chrome = Timeline.to_chrome_json ~np evs in
  (match Obs.Json.parse chrome with
  | Ok json ->
      check_bool "traceEvents array" true
        (Option.is_some (Obs.Json.member "traceEvents" json))
  | Error msg -> Alcotest.failf "chrome trace unparseable: %s" msg);
  check_bool "network lane named" true (contains chrome "network")

let test_audit_contention_free_conforms () =
  (* Under the paper's model a legal schedule never falls behind the
     static promise, so the audit must come back clean. *)
  List.iter
    (fun (name, g) ->
      let topo = Topology.mesh ~rows:2 ~cols:4 in
      let s = compacted g topo in
      let rec_ = Events.recorder () in
      let _ = Sim.execute ~recorder:rec_ s topo ~iterations:10 in
      let a = Audit.audit s (Events.events rec_) in
      check_bool (name ^ ": conforms") true a.Audit.conforms;
      check (name ^ ": no slips") 0 a.Audit.slipped;
      check (name ^ ": every instance audited")
        (Csdfg.n_nodes (Schedule.dfg s) * 10)
        a.Audit.instances)
    [ ("fig7", Workloads.Examples.fig7); ("fig1b", Workloads.Examples.fig1b) ]

let test_audit_names_blocking_chain () =
  (* The acceptance case: a FIFO run with measured slowdown above 1.0
     must attribute the slip to a named link/message chain. *)
  let g = Workloads.Dsp.correlator ~lags:4 in
  let topo = Topology.linear_array 8 in
  let s = compacted g topo in
  let rec_ = Events.recorder () in
  let stats =
    Sim.execute ~policy:Sim.Fifo_links ~recorder:rec_ s topo ~iterations:40
  in
  check_bool "slowdown above 1" true (Sim.slowdown stats s > 1.0);
  let a = Audit.audit ~k:5 s (Events.events rec_) in
  check_bool "does not conform" true (not a.Audit.conforms);
  check_bool "offenders listed" true (a.Audit.worst <> []);
  check_bool "a chain names a congested link" true
    (List.exists
       (fun (sl : Audit.slip) ->
         List.exists
           (function Audit.Link_contention _ -> true | _ -> false)
           sl.Audit.chain)
       a.Audit.worst);
  check_bool "worst slip reported" true
    (List.for_all (fun (sl : Audit.slip) -> sl.Audit.slip > 0) a.Audit.worst);
  check_bool "link occupancy populated" true
    (List.exists (fun (l : Audit.link_use) -> l.Audit.busy > 0) a.Audit.links);
  (* the printer runs and mentions a link *)
  let text = Fmt.str "%a" (Audit.pp ~label:(Csdfg.label (Schedule.dfg s))) a in
  check_bool "report names a link" true
    (let contains hay needle =
       let nl = String.length needle and hl = String.length hay in
       let rec go i =
         i + nl <= hl && (String.sub hay i nl = needle || go (i + 1))
       in
       go 0
     in
     contains text "on link pe")

let prop_fifo_never_beats_free =
  (* Random workloads: serialising links can only delay execution, and
     it never changes what was communicated.  The slowdown comparison is
     on total makespan: the monotone quantity.  (average_period is a
     second-half slope and can legitimately dip under FIFO when the
     contention transient shifts completions into the first half — seed
     8646 on ring:4 measures free 9.0 vs fifo 8.0 while the fifo
     makespan is still larger.) *)
  QCheck.Test.make ~count:40
    ~name:"fifo makespan slowdown >= contention-free's"
    (QCheck.int_range 0 10_000)
    (fun seed ->
      let g = Workloads.Random_gen.generate_connected ~seed () in
      let topo =
        match seed mod 3 with
        | 0 -> Topology.linear_array 4
        | 1 -> Topology.ring 4
        | _ -> Topology.mesh ~rows:2 ~cols:2
      in
      let s = compacted g topo in
      let free = Sim.execute ~policy:Sim.Contention_free s topo ~iterations:12 in
      let fifo = Sim.execute ~policy:Sim.Fifo_links s topo ~iterations:12 in
      if fifo.Sim.makespan < free.Sim.makespan then
        QCheck.Test.fail_reportf "seed %d: fifo makespan %d < free %d" seed
          fifo.Sim.makespan free.Sim.makespan;
      if fifo.Sim.messages <> free.Sim.messages then
        QCheck.Test.fail_reportf "seed %d: message counts differ" seed;
      if fifo.Sim.message_hops <> free.Sim.message_hops then
        QCheck.Test.fail_reportf "seed %d: hop counts differ" seed;
      if free.Sim.max_link_backlog <> 0 then
        QCheck.Test.fail_reportf "seed %d: free policy queued a message" seed;
      float_of_int fifo.Sim.makespan /. float_of_int (max 1 free.Sim.makespan)
      >= 1. -. 1e-9)

let () =
  Alcotest.run "machine"
    [
      ( "analytical-agreement",
        [
          Alcotest.test_case "static bound formula" `Quick
            test_static_bound_formula;
          Alcotest.test_case "contention-free meets bound" `Quick
            test_contention_free_meets_static_bound;
          Alcotest.test_case "sustained period" `Quick
            test_period_matches_schedule_length;
          Alcotest.test_case "all workloads" `Quick test_all_workloads_simulate;
        ] );
      ( "contention",
        [
          Alcotest.test_case "fifo >= free" `Quick test_fifo_never_faster_than_free;
          Alcotest.test_case "saturated hub link" `Quick
            test_fifo_contention_degrades_saturated_link;
        ] );
      ( "wormhole",
        [
          Alcotest.test_case "cost model" `Quick test_wormhole_cost_model;
          Alcotest.test_case "schedules execute" `Quick
            test_wormhole_schedule_executes;
          Alcotest.test_case "fifo not faster" `Quick test_wormhole_fifo_not_faster;
          Alcotest.test_case "with_comm recosting" `Quick test_with_comm_recosting;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "single processor" `Quick
            test_single_processor_no_messages;
          Alcotest.test_case "self loop chain" `Quick test_self_loop_instance_chain;
          Alcotest.test_case "busy time" `Quick test_busy_accounting;
          Alcotest.test_case "message count" `Quick test_message_count_formula;
          Alcotest.test_case "weighted links" `Quick
            test_weighted_topology_execution;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "bad inputs" `Quick test_rejects_bad_inputs;
          Alcotest.test_case "deadlock detection" `Quick
            test_illegal_schedule_deadlocks;
        ] );
      ( "flight-recorder",
        [
          Alcotest.test_case "tallies match stats" `Quick
            test_recorder_tallies_match_stats;
          Alcotest.test_case "recording is observational" `Quick
            test_recording_is_observational;
          Alcotest.test_case "busy array is a copy" `Quick
            test_busy_array_is_a_copy;
          Alcotest.test_case "per-PE utilization" `Quick
            test_per_pe_utilization;
          Alcotest.test_case "stall counters and histograms" `Quick
            test_stall_counters_and_histograms;
          Alcotest.test_case "jsonl export" `Quick
            test_jsonl_export_well_formed;
          Alcotest.test_case "timeline views" `Quick test_timeline_views;
        ] );
      ( "audit",
        [
          Alcotest.test_case "contention-free conforms" `Quick
            test_audit_contention_free_conforms;
          Alcotest.test_case "contended run names its chain" `Quick
            test_audit_names_blocking_chain;
          QCheck_alcotest.to_alcotest ~long:false prop_fifo_never_beats_free;
        ] );
    ]
