(* Tests for the fault-injection layer: scenario DSL, deterministic
   loss draws, fault-free byte-identity, fixed-seed replay, degraded-mode
   recovery, and the search-time budgets that ride along. *)

module Schedule = Cyclo.Schedule
module Sim = Machine.Simulator
module Faults = Machine.Faults
module Events = Machine.Events
module Audit = Machine.Audit

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let compacted g topo =
  (Cyclo.Compaction.run_on g topo).Cyclo.Compaction.best

let jsonl_of_run ?faults s topo ~iterations =
  let r = Events.recorder () in
  let stats = Sim.execute ~recorder:r ?faults s topo ~iterations in
  (stats, Events.to_jsonl (Events.events r))

(* {2 Scenario DSL} *)

let test_dsl_round_trip () =
  let s =
    Faults.scenario ~max_retries:7 ~backoff_base:2 ~detect_delay:3
      ~name:"round-trip"
      [
        Faults.Pe_fail_stop { pe = 2; at = 40 };
        Faults.Link_down { a = 0; b = 1; from_t = 10; until = Some 30 };
        Faults.Link_down { a = 1; b = 5; from_t = 12; until = None };
        Faults.Link_lossy { a = 0; b = 4; loss = 0.25 };
      ]
  in
  match Faults.of_string (Faults.to_string s) with
  | Error e -> Alcotest.fail (Faults.error_to_string e)
  | Ok s' ->
      Alcotest.(check string)
        "round-trips" (Faults.to_string s) (Faults.to_string s');
      check "retries" s.Faults.max_retries s'.Faults.max_retries;
      check "detect" s.Faults.detect_delay s'.Faults.detect_delay

let test_dsl_errors_carry_line_numbers () =
  (match Faults.of_string "scenario x\nfail-pe 1 at 5\nfail-pe nope\n" with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error e -> check "line of bad fault" 3 e.Faults.line);
  match Faults.of_string "scenario x\nlink-lossy 1 2 1.5\n" with
  | Ok _ -> Alcotest.fail "loss must be < 1"
  | Error e -> check "line of bad loss" 2 e.Faults.line

let test_validate_rejects_out_of_range () =
  let topo = Topology.mesh ~rows:2 ~cols:2 in
  let bad = Faults.scenario ~name:"bad" [ Faults.Pe_fail_stop { pe = 9; at = 1 } ] in
  check_bool "pe out of range" true
    (Result.is_error (Faults.validate bad topo));
  let ok =
    Faults.scenario ~name:"ok"
      [ Faults.Link_down { a = 0; b = 3; from_t = 0; until = None } ]
  in
  (* absent links are inert but in-range endpoints are accepted *)
  check_bool "absent link accepted" true (Result.is_ok (Faults.validate ok topo))

(* {2 Deterministic loss draws} *)

let test_lost_is_deterministic () =
  for msg = 0 to 50 do
    for xmit = 1 to 4 do
      check_bool "same draw twice" true
        (Faults.lost ~seed:7 ~msg ~xmit 0.5
        = Faults.lost ~seed:7 ~msg ~xmit 0.5)
    done
  done;
  check_bool "p = 0 never loses" false (Faults.lost ~seed:1 ~msg:3 ~xmit:1 0.);
  (* the draws behave like a fair uniform source *)
  let n = 20_000 in
  let hits = ref 0 in
  for msg = 0 to n - 1 do
    if Faults.lost ~seed:42 ~msg ~xmit:1 0.3 then incr hits
  done;
  let freq = float_of_int !hits /. float_of_int n in
  check_bool "empirical loss rate near 0.3" true (abs_float (freq -. 0.3) < 0.02)

(* {2 Fault-free behaviour is untouched} *)

let test_empty_scenario_is_byte_identical () =
  (* Arming an empty scenario forces the per-hop fault stepping, which
     must reproduce the clean run exactly: same stats, same events. *)
  let g = Workloads.Examples.fig7 in
  let topo = Topology.mesh ~rows:2 ~cols:4 in
  let s = compacted g topo in
  let clean, clean_jsonl = jsonl_of_run s topo ~iterations:40 in
  let armed = Faults.arm ~seed:1 (Faults.scenario ~name:"empty" []) in
  let faulty, faulty_jsonl = jsonl_of_run ~faults:armed s topo ~iterations:40 in
  check "same makespan" clean.Sim.makespan faulty.Sim.makespan;
  check "same messages" clean.Sim.messages faulty.Sim.messages;
  check "same hops" clean.Sim.message_hops faulty.Sim.message_hops;
  Alcotest.(check (float 1e-9))
    "same period" clean.Sim.average_period faulty.Sim.average_period;
  (* The fault path interleaves same-time events through its retry
     queue, so intra-timestamp ordering — and with it the send-order
     message ids — may permute.  Modulo those ids, the streams must
     contain exactly the same events at the same times. *)
  let strip_msg_id s =
    let b = Buffer.create (String.length s) in
    let key = "\"msg\":" in
    let n = String.length s in
    let i = ref 0 in
    while !i < n do
      if !i + 6 <= n && String.sub s !i 6 = key then begin
        Buffer.add_string b key;
        i := !i + 6;
        while !i < n && s.[!i] >= '0' && s.[!i] <= '9' do
          incr i
        done
      end
      else begin
        Buffer.add_char b s.[!i];
        incr i
      end
    done;
    Buffer.contents b
  in
  let lines s =
    List.sort compare (List.map strip_msg_id (String.split_on_char '\n' s))
  in
  Alcotest.(check (list string))
    "same events" (lines clean_jsonl) (lines faulty_jsonl);
  check_bool "clean run reports no faults" true (clean.Sim.faults = None)

(* Under FIFO links the per-hop engine books a directed link for one
   message at a time: no two hop busy intervals [t - busy, t) on one link
   overlap.  The clean engine's FIFO path does not hold this yet, which
   is why the empty-scenario test above is pinned on contention-free
   runs only (docs/model.md, "Execution semantics"). *)
let test_per_hop_fifo_never_double_books () =
  List.iter
    (fun arch ->
      let topo = Result.get_ok (Topology.of_spec arch) in
      List.iter
        (fun (name, g) ->
          let r = Events.recorder () in
          let armed = Faults.arm ~seed:1 (Faults.scenario ~name:"empty" []) in
          ignore
            (Sim.execute ~policy:Sim.Fifo_links ~recorder:r ~faults:armed
               (compacted g topo) topo ~iterations:40);
          let booked = Hashtbl.create 16 in
          List.iter
            (function
              | Events.Msg_hop { t; link; busy; _ } ->
                  Hashtbl.replace booked link
                    ((t - busy, t)
                    :: Option.value ~default:[] (Hashtbl.find_opt booked link))
              | _ -> ())
            (Events.events r);
          Hashtbl.iter
            (fun (a, b) intervals ->
              ignore
                (List.fold_left
                   (fun busy_until (start, stop) ->
                     if start < busy_until then
                       Alcotest.failf
                         "%s on %s: link %d->%d double-booked at %d" name arch
                         a b start;
                     max busy_until stop)
                   min_int (List.sort compare intervals)))
            booked)
        (Workloads.Suite.all ()))
    [ "linear:8"; "mesh:2x4" ]

let test_clean_run_replays_identically () =
  let g = Workloads.Examples.fig7 in
  let topo = Topology.mesh ~rows:2 ~cols:4 in
  let s = compacted g topo in
  let _, a = jsonl_of_run s topo ~iterations:40 in
  let _, b = jsonl_of_run s topo ~iterations:40 in
  Alcotest.(check string) "byte-identical" a b

(* {2 Fixed-seed replay} *)

let lossy_scenario =
  Faults.scenario ~max_retries:3 ~backoff_base:2 ~name:"lossy"
    [ Faults.Link_lossy { a = 0; b = 1; loss = 0.4 };
      Faults.Link_lossy { a = 1; b = 2; loss = 0.4 } ]

let test_fixed_seed_replays_identically () =
  let g = Workloads.Examples.fig7 in
  let topo = Topology.mesh ~rows:2 ~cols:4 in
  let s = compacted g topo in
  let run seed =
    jsonl_of_run ~faults:(Faults.arm ~seed lossy_scenario) s topo
      ~iterations:40
  in
  let _, a1 = run 11 in
  let _, a2 = run 11 in
  Alcotest.(check string) "same seed, same bytes" a1 a2;
  let _, b = run 12 in
  check_bool "different seed, different stream" true (a1 <> b)

let test_lossy_links_retry_and_drop () =
  let g = Workloads.Examples.fig7 in
  let topo = Topology.mesh ~rows:2 ~cols:4 in
  let s = compacted g topo in
  let stats, _ =
    jsonl_of_run ~faults:(Faults.arm ~seed:11 lossy_scenario) s topo
      ~iterations:40
  in
  match stats.Sim.faults with
  | None -> Alcotest.fail "fault run must carry a report"
  | Some r ->
      check_bool "some transmissions were retried" true (r.Faults.retries > 0);
      check_bool "no permanent fault" true (r.Faults.fault_time = None);
      check "nothing to recover from" 0 r.Faults.recovery_latency

(* [messages] counts every message sent: the deliveries in the event log
   plus the ones the report gives up on. *)
let test_messages_count_sends () =
  let g = Workloads.Examples.fig7 in
  let topo = Topology.mesh ~rows:2 ~cols:4 in
  let s = compacted g topo in
  let sc =
    Faults.scenario ~max_retries:1 ~name:"lossy"
      [ Faults.Link_lossy { a = 0; b = 1; loss = 0.5 };
        Faults.Link_lossy { a = 1; b = 2; loss = 0.5 } ]
  in
  let r = Events.recorder () in
  let stats =
    Sim.execute ~recorder:r ~faults:(Faults.arm ~seed:1 sc) s topo
      ~iterations:40
  in
  match stats.Sim.faults with
  | None -> Alcotest.fail "fault run must carry a report"
  | Some report ->
      check_bool "some messages never arrive" true
        (report.Faults.undelivered > 0);
      check "sent = delivered + undelivered" stats.Sim.messages
        (Events.deliveries (Events.events r) + report.Faults.undelivered)

(* {2 Transient link outage} *)

let test_transient_window_delays_but_recovers () =
  let g = Workloads.Examples.fig7 in
  let topo = Topology.mesh ~rows:2 ~cols:4 in
  let s = compacted g topo in
  let clean = Sim.execute s topo ~iterations:40 in
  let sc =
    Faults.scenario ~name:"blip"
      [ Faults.Link_down { a = 0; b = 1; from_t = 5; until = Some 60 } ]
  in
  let stats = Sim.execute ~faults:(Faults.arm sc) s topo ~iterations:40 in
  check_bool "outage cannot speed the run up" true
    (stats.Sim.makespan >= clean.Sim.makespan);
  match stats.Sim.faults with
  | None -> Alcotest.fail "fault run must carry a report"
  | Some r ->
      check_bool "transient is not permanent" true (r.Faults.fault_time = None);
      check "no drops without loss" 0 r.Faults.drops;
      check_bool "verdict is not a recovery" true
        (match Audit.degradation r with
        | Audit.Unharmed | Audit.Lossy _ -> true
        | Audit.Recovered _ | Audit.Unrecoverable _ -> false)

(* {2 Fail-stop recovery} *)

let fail_stop_scenario ~pe ~at =
  Faults.scenario ~detect_delay:2 ~name:"fail-stop"
    [ Faults.Pe_fail_stop { pe; at } ]

let test_fail_stop_recovers_on_fig7 () =
  let g = Workloads.Examples.fig7 in
  let topo = Topology.mesh ~rows:2 ~cols:4 in
  let s = compacted g topo in
  let clean = Sim.execute s topo ~iterations:40 in
  let stats =
    Sim.execute
      ~faults:(Faults.arm ~seed:1 (fail_stop_scenario ~pe:2 ~at:40))
      s topo ~iterations:40
  in
  match stats.Sim.faults with
  | None -> Alcotest.fail "fault run must carry a report"
  | Some r ->
      Alcotest.(check (list int)) "the victim" [ 2 ] r.Faults.failed_pes;
      check_bool "fault time recorded" true (r.Faults.fault_time = Some 40);
      check_bool "recovery took time" true (r.Faults.recovery_latency > 0);
      check_bool "replan succeeded" true (r.Faults.replan_error = None);
      check "all iterations accounted" 40
        (r.Faults.completed_iterations + r.Faults.replayed_iterations);
      check_bool "degraded period >= fault-free period" true
        (r.Faults.post_fault_period >= clean.Sim.average_period -. 1e-9);
      check_bool "verdict acknowledges the fault" true
        (match Audit.degradation r with
        | Audit.Recovered _ | Audit.Lossy _ -> true
        | Audit.Unharmed | Audit.Unrecoverable _ -> false)

let test_fail_stop_replan_is_validator_clean () =
  List.iter
    (fun (name, g) ->
      let topo = Topology.mesh ~rows:2 ~cols:4 in
      let s = compacted g topo in
      for pe = 0 to 7 do
        match
          Cyclo.Degrade.replan s topo ~failed_pes:[ pe ] ~failed_links:[]
        with
        | Error e -> Alcotest.fail (Printf.sprintf "%s pe%d: %s" name pe e)
        | Ok plan ->
            check_bool
              (Printf.sprintf "%s pe%d legal" name pe)
              true
              (Result.is_ok (Cyclo.Validator.check plan.Cyclo.Degrade.schedule));
            check_bool
              (Printf.sprintf "%s pe%d routable" name pe)
              true
              (Result.is_ok
                 (Cyclo.Validator.check_topology plan.Cyclo.Degrade.schedule
                    plan.Cyclo.Degrade.topology))
      done)
    [
      ("fig7", Workloads.Examples.fig7);
      ("correlator4", Workloads.Dsp.correlator ~lags:4);
    ]

(* Any single fail-stop, at any time inside the run, must leave a
   validator-clean degraded schedule whose measured period is no better
   than the fault-free one (fewer processors cannot speed it up). *)
let prop_single_fail_stop_recovers =
  let topo = Topology.mesh ~rows:2 ~cols:4 in
  let cases =
    [
      ("fig7", Workloads.Examples.fig7);
      ("correlator4", Workloads.Dsp.correlator ~lags:4);
    ]
    |> List.map (fun (name, g) ->
           let s = compacted g topo in
           let clean = Sim.execute s topo ~iterations:30 in
           (name, s, clean))
  in
  QCheck.Test.make ~count:60 ~name:"single fail-stop recovers cleanly"
    QCheck.(triple (int_range 0 7) (int_range 1 120) (int_bound 1))
    (fun (pe, at, which) ->
      let _, s, clean = List.nth cases (which mod List.length cases) in
      let stats =
        Sim.execute
          ~faults:(Faults.arm ~seed:3 (fail_stop_scenario ~pe ~at))
          s topo ~iterations:30
      in
      match stats.Sim.faults with
      | None -> false
      | Some r ->
          r.Faults.replan_error = None
          && r.Faults.completed_iterations + r.Faults.replayed_iterations = 30
          && (r.Faults.replayed_iterations = 0
             || r.Faults.post_fault_period >= clean.Sim.average_period -. 1e-9))

(* {2 Validator.check_topology} *)

let test_check_topology_flags_dead_processor () =
  let g = Workloads.Examples.fig7 in
  let topo = Topology.mesh ~rows:2 ~cols:4 in
  let s = compacted g topo in
  check_bool "clean machine passes" true
    (Result.is_ok (Cyclo.Validator.check_topology s topo));
  let alive = Array.make 8 true in
  alive.(0) <- false;
  check_bool "killing a used processor fails" true
    (Result.is_error (Cyclo.Validator.check_topology ~alive s topo))

(* {2 Search-time budgets} *)

let test_exhaustive_budget_carries_best_so_far () =
  let g = Workloads.Examples.fig7 in
  let comm = Cyclo.Comm.of_topology (Topology.mesh ~rows:2 ~cols:4) in
  (match Cyclo.Exhaustive.solve ~max_states:2_000 g comm with
  | Cyclo.Exhaustive.Optimal _ -> Alcotest.fail "2000 states cannot solve fig7"
  | Cyclo.Exhaustive.Gave_up None -> Alcotest.fail "must carry best-so-far"
  | Cyclo.Exhaustive.Gave_up (Some s) ->
      check_bool "carried schedule is legal" true
        (Result.is_ok (Cyclo.Validator.check s)));
  match Cyclo.Exhaustive.solve ~time_budget:0. g comm with
  | Cyclo.Exhaustive.Optimal _ -> Alcotest.fail "zero budget cannot solve fig7"
  | Cyclo.Exhaustive.Gave_up best ->
      check_bool "timeout also carries best-so-far" true (best <> None)

let test_autotune_budget_reports_exhaustion () =
  let g = Workloads.Examples.fig7 in
  let topo = Topology.mesh ~rows:2 ~cols:4 in
  let autotune ?time_budget () =
    Cyclo.Portfolio.(polish (run_on ~k:4 ~domains:1 ?time_budget g topo))
  in
  let full = autotune () in
  check_bool "no budget: not exhausted" false full.Cyclo.Portfolio.timed_out;
  check "no budget: all configurations" 4
    (List.length full.Cyclo.Portfolio.members);
  let cut = autotune ~time_budget:0. () in
  check_bool "zero budget: exhausted" true cut.Cyclo.Portfolio.timed_out;
  check "zero budget: every configuration reports its best-so-far" 4
    (List.length cut.Cyclo.Portfolio.members);
  check_bool "still returns a legal best" true
    (Result.is_ok (Cyclo.Validator.check (Cyclo.Portfolio.best cut)))

let () =
  Alcotest.run "faults"
    [
      ( "dsl",
        [
          Alcotest.test_case "round trip" `Quick test_dsl_round_trip;
          Alcotest.test_case "errors carry line numbers" `Quick
            test_dsl_errors_carry_line_numbers;
          Alcotest.test_case "validate ranges" `Quick
            test_validate_rejects_out_of_range;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "loss draws" `Quick test_lost_is_deterministic;
          Alcotest.test_case "empty scenario byte-identical" `Quick
            test_empty_scenario_is_byte_identical;
          Alcotest.test_case "per-hop fifo books links singly" `Quick
            test_per_hop_fifo_never_double_books;
          Alcotest.test_case "clean replay" `Quick
            test_clean_run_replays_identically;
          Alcotest.test_case "fixed-seed replay" `Quick
            test_fixed_seed_replays_identically;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "lossy retries" `Quick
            test_lossy_links_retry_and_drop;
          Alcotest.test_case "messages count sends" `Quick
            test_messages_count_sends;
          Alcotest.test_case "transient window" `Quick
            test_transient_window_delays_but_recovers;
          Alcotest.test_case "fail-stop recovers" `Quick
            test_fail_stop_recovers_on_fig7;
          Alcotest.test_case "replan validator-clean" `Quick
            test_fail_stop_replan_is_validator_clean;
          QCheck_alcotest.to_alcotest prop_single_fail_stop_recovers;
        ] );
      ( "topology-check",
        [
          Alcotest.test_case "dead processor" `Quick
            test_check_topology_flags_dead_processor;
        ] );
      ( "budgets",
        [
          Alcotest.test_case "exhaustive best-so-far" `Quick
            test_exhaustive_budget_carries_best_so_far;
          Alcotest.test_case "autotune exhausted flag" `Quick
            test_autotune_budget_reports_exhaustion;
        ] );
    ]
