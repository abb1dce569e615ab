(* Scheduler hot-path benchmarks (Bechamel), emitting BENCH_sched.json.

     dune exec bench/sched_bench.exe            # full measurement
     dune exec bench/sched_bench.exe -- --quick # CI smoke (short quota)

   The headline comparison is [Startup.run] against [Naive.run], a
   faithful port of the pre-occupancy-index start-up scheduler (O(V)
   placement scans, step-by-step control-step sweep, arrival bounds
   recomputed per query).  Both produce byte-identical schedules — the
   golden-signature test asserts that — so the ratio isolates the cost
   of the data structures.  The remaining benches track one
   rotate-and-remap pass and full compaction drives on the two largest
   shipped workloads across three 8-16 PE machines. *)

module Csdfg = Dataflow.Csdfg
module G = Digraph.Graph
module Schedule = Cyclo.Schedule
module Comm = Cyclo.Comm
module Priority = Cyclo.Priority
module Compaction = Cyclo.Compaction
module Portfolio = Cyclo.Portfolio
module Timing = Cyclo.Timing

(* ------------------------------------------------------------------ *)
(* Naive baseline: the pre-index start-up scheduler, via public API     *)
(* ------------------------------------------------------------------ *)

module Naive = struct
  let arrival_bound dfg comm sched v p =
    let from_edge acc (e : Csdfg.attr G.edge) =
      if Csdfg.delay e <> 0 then acc
      else begin
        let u = e.G.src in
        let m =
          Comm.cost comm ~src:(Schedule.pe sched u) ~dst:p
            ~volume:(Csdfg.volume e)
        in
        max acc (Schedule.ce sched u + m)
      end
    in
    List.fold_left from_edge 0 (Csdfg.pred dfg v)

  let run dfg comm =
    let priority = Priority.create dfg in
    let dag = Csdfg.zero_delay_graph dfg in
    let n = Csdfg.n_nodes dfg in
    let np = Comm.n_processors comm in
    let remaining_preds = Array.init n (G.in_degree dag) in
    let in_list = Array.make n false in
    let ready = ref [] in
    let pending = ref [] in
    let promote v =
      if remaining_preds.(v) = 0 && not in_list.(v) then begin
        in_list.(v) <- true;
        pending := v :: !pending
      end
    in
    List.iter promote (Csdfg.nodes dfg);
    let sched = ref (Schedule.empty dfg comm) in
    let ce = Array.make n 0 in
    let unscheduled = ref n in
    let cs = ref 1 in
    while !unscheduled > 0 do
      ready := List.rev_append !pending !ready;
      pending := [];
      let order = Priority.sort_ready priority ~ce ~cs:!cs !ready in
      let place v =
        let feasible p =
          arrival_bound dfg comm !sched v p < !cs
          && Schedule.is_free !sched ~pe:p ~cb:!cs
               ~span:(Schedule.duration !sched ~node:v ~pe:p)
        in
        let candidates =
          List.filter feasible (List.init np Fun.id)
          |> List.map (fun p -> (arrival_bound dfg comm !sched v p, p))
          |> List.sort compare
        in
        match candidates with
        | [] -> true
        | (_, p) :: _ ->
            sched := Schedule.assign !sched ~node:v ~cb:!cs ~pe:p;
            ce.(v) <- Schedule.ce !sched v;
            decr unscheduled;
            let release (e : Csdfg.attr G.edge) =
              let w = e.G.dst in
              remaining_preds.(w) <- remaining_preds.(w) - 1;
              promote w
            in
            List.iter release (G.succ dag v);
            false
      in
      ready := List.filter place order;
      incr cs
    done;
    let sched = !sched in
    Schedule.set_length sched (Timing.required_length sched)

  let run_on dfg topo = run dfg (Comm.of_topology topo)
end

(* ------------------------------------------------------------------ *)
(* The suite                                                            *)
(* ------------------------------------------------------------------ *)

let workloads () =
  [ ("elliptic", Workloads.Filters.elliptic); ("lms4", Workloads.Kernels.lms ~taps:4) ]

let topologies () =
  [
    ("linear8", Topology.linear_array 8);
    ("mesh4x4", Topology.mesh ~rows:4 ~cols:4);
    ("cube3", Topology.hypercube 3);
  ]

let tests () =
  let open Bechamel in
  let elliptic = List.assoc "elliptic" (workloads ()) in
  let mesh16 = List.assoc "mesh4x4" (topologies ()) in
  let startup_pair =
    [
      Test.make ~name:"startup-new-elliptic-mesh4x4"
        (Staged.stage (fun () -> ignore (Cyclo.Startup.run_on elliptic mesh16)));
      Test.make ~name:"startup-naive-elliptic-mesh4x4"
        (Staged.stage (fun () -> ignore (Naive.run_on elliptic mesh16)));
    ]
  in
  let one_pass =
    let s = Cyclo.Startup.run_on elliptic mesh16 in
    Test.make ~name:"compaction-pass-elliptic-mesh4x4"
      (Staged.stage (fun () ->
           ignore (Compaction.pass Cyclo.Remap.With_relaxation s)))
  in
  let drives =
    List.concat_map
      (fun (wn, g) ->
        List.map
          (fun (tn, topo) ->
            Test.make
              ~name:(Printf.sprintf "drive-%s-%s" wn tn)
              (Staged.stage (fun () ->
                   ignore (Compaction.run_on ~validate:false g topo))))
          (topologies ()))
      (workloads ())
  in
  (* Flight-recorder overhead: the same contended execution with and
     without an event recorder attached.  The recorder is strictly
     observational, so the ratio is pure bookkeeping cost. *)
  let simulate_pair =
    let sched = (Compaction.run_on ~validate:false elliptic mesh16).Compaction.best in
    let run ?recorder () =
      ignore
        (Machine.Simulator.execute ~policy:Machine.Simulator.Fifo_links
           ?recorder sched mesh16 ~iterations:50)
    in
    [
      Test.make ~name:"simulate-plain-elliptic-mesh4x4"
        (Staged.stage (fun () -> run ()));
      Test.make ~name:"simulate-recorded-elliptic-mesh4x4"
        (Staged.stage (fun () -> run ~recorder:(Machine.Events.recorder ()) ()));
    ]
  in
  startup_pair @ (one_pass :: drives) @ simulate_pair

let measure ~quota tests =
  let open Bechamel in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:None () in
  List.concat_map
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let analyzed = Analyze.all ols instance results in
      Hashtbl.fold
        (fun name ols_result acc ->
          match Analyze.OLS.estimates ols_result with
          | Some [ ns ] -> (name, ns) :: acc
          | Some _ | None -> acc)
        analyzed [])
    tests

let json_escape = Obs.Json.Writer.escape

(* Deterministic schedule-quality rows: startup/best lengths and pass
   counts for every workload x topology drive.  These are what the
   regression gate compares across machines — unlike ns/run they are
   exact, so any change is a real behaviour change.  Counters run during
   the sweep and are reset between workloads: without the reset the
   second workload's dump would absorb the first one's counts and the
   per-workload summaries would be meaningless. *)
let schedule_rows () =
  Obs.Counters.enable ();
  let rows =
    List.map
      (fun (wn, g) ->
        Obs.Counters.reset ();
        let per_topo =
          List.map
            (fun (tn, topo) ->
              let r = Compaction.run_on ~validate:false g topo in
              ( tn,
                Schedule.length r.Compaction.startup,
                Schedule.length r.Compaction.best,
                List.length r.Compaction.trace ))
            (topologies ())
        in
        (wn, per_topo, Obs.Counters.dump ()))
      (workloads ())
  in
  Obs.Counters.disable ();
  rows

(* Scale-tier cells: a layered DAG at 10^4 and 10^5 nodes, generated
   and startup-scheduled once each, wall-clock timed per phase with the
   process RSS high-water mark sampled after each phase.  The startup
   length is exact, so any movement is a behaviour change; ns/node and
   peak RSS are what the regression gate bounds (same-host tolerance
   and an absolute ceiling respectively) — the early-warning line
   against the sweep or the occupancy index going superlinear again.
   These cells run first in main so the high-water mark is attributable
   to this phase rather than to whichever earlier phase grew the heap
   most. *)
type scale_cell = {
  sc_name : string;
  sc_nodes : int;
  sc_topology : string;
  sc_gen_ns : int;
  sc_startup_ns : int;
  sc_ns_per_node : float;
  sc_startup_len : int;
  sc_gen_peak_rss : int;  (* bytes, after generation *)
  sc_startup_peak_rss : int;  (* bytes, after the startup sweep *)
}

let scale_cells () =
  List.map
    (fun nodes ->
      let t0 = Obs.Trace.now_ns () in
      let g = Workloads.Random_gen.layered ~nodes ~seed:1 () in
      let t1 = Obs.Trace.now_ns () in
      let gen_peak =
        (Obs.Resource.sample_process ()).Obs.Resource.peak_rss_bytes
      in
      let s = Cyclo.Startup.run_on g (Topology.linear_array 8) in
      let t2 = Obs.Trace.now_ns () in
      let startup_peak =
        (Obs.Resource.sample_process ()).Obs.Resource.peak_rss_bytes
      in
      {
        sc_name = Csdfg.name g;
        sc_nodes = nodes;
        sc_topology = "linear8";
        sc_gen_ns = t1 - t0;
        sc_startup_ns = t2 - t1;
        sc_ns_per_node = float_of_int (t2 - t1) /. float_of_int nodes;
        sc_startup_len = Schedule.length s;
        sc_gen_peak_rss = gen_peak;
        sc_startup_peak_rss = startup_peak;
      })
    [ 10_000; 100_000 ]

let scale_json cells =
  let buf = Buffer.create 512 in
  Buffer.add_char buf '[';
  List.iteri
    (fun i c ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "{\"name\":\"%s\",\"nodes\":%d,\"topology\":\"%s\",\
            \"gen_ns\":%d,\"startup_ns\":%d,\"ns_per_node\":%.1f,\
            \"startup_len\":%d,\"gen_peak_rss_bytes\":%d,\
            \"startup_peak_rss_bytes\":%d}"
           (json_escape c.sc_name) c.sc_nodes (json_escape c.sc_topology)
           c.sc_gen_ns c.sc_startup_ns c.sc_ns_per_node c.sc_startup_len
           c.sc_gen_peak_rss c.sc_startup_peak_rss))
    cells;
  Buffer.add_char buf ']';
  Buffer.contents buf

(* Portfolio vs sequential pair: the same K diversified searches over
   the default domain count (Portfolio.run defaults) against one domain
   ([~domains:1]).  Wall-clock is best-of-two to damp scheduler noise;
   pass counts and winner identity are exact, so the regression gate
   leans on those — both variants run the same searches, so
   [winner_match] asserts byte-identical winners (the portfolio's
   determinism contract) and the pass totals must be equal. *)
type pf_cell = {
  pf_workload : string;
  pf_topology : string;
  seq_ms : float;
  pf_ms : float;
  seq_passes : int;
  pf_passes : int;
  winner_len : int;
  winner_match : bool;
}

let portfolio_cells () =
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, (Unix.gettimeofday () -. t0) *. 1e3)
  in
  let best_of_two f =
    let r, ms1 = time f in
    let _, ms2 = time f in
    (r, Float.min ms1 ms2)
  in
  let total_passes r =
    List.fold_left (fun acc m -> acc + m.Portfolio.passes) 0
      r.Portfolio.members
  in
  List.concat_map
    (fun (wn, g) ->
      List.map
        (fun (tn, topo) ->
          let seq, seq_ms =
            best_of_two (fun () ->
                Portfolio.run_on ~domains:1 ~validate:false g topo)
          in
          let pf, pf_ms =
            best_of_two (fun () -> Portfolio.run_on ~validate:false g topo)
          in
          let seq_best = Portfolio.best seq and pf_best = Portfolio.best pf in
          {
            pf_workload = wn;
            pf_topology = tn;
            seq_ms;
            pf_ms;
            seq_passes = total_passes seq;
            pf_passes = total_passes pf;
            winner_len = Schedule.length pf_best;
            winner_match =
              String.equal
                (Schedule.signature seq_best)
                (Schedule.signature pf_best);
          })
        (topologies ()))
    (workloads ())

let portfolio_summary cells =
  let seq = List.fold_left (fun a c -> a +. c.seq_ms) 0. cells in
  let pf = List.fold_left (fun a c -> a +. c.pf_ms) 0. cells in
  let speedup = if pf > 0. then seq /. pf else 0. in
  (speedup, List.for_all (fun c -> c.winner_match) cells)

(* Scheduling-service cells: a closed-loop client drives a real daemon
   (own domain, Unix-domain socket) through three phases — distinct
   schedule requests (all cache misses), repeats of those requests (all
   hits), and paired replan requests (one miss, one hit per session) —
   timing each request end-to-end over the wire.  The contract the gate
   enforces is that serving a hit (one cache lookup plus reply bytes) is
   at least 10x below the miss path, which re-runs the compaction
   search; see docs/service.md. *)
type svc_cell = {
  svc_name : string;
  svc_count : int;
  svc_p50_ns : int;
  svc_p99_ns : int;
}

type svc = {
  svc_cells : svc_cell list;
  svc_requests : int;
  svc_hit_rate : float;
  svc_speedup_p50 : float;  (* miss p50 / hit p50 *)
  svc_warm_speedup_p50 : float;  (* miss p50 / warm-restart p50 *)
}

let percentile samples p =
  let a = Array.of_list samples in
  Array.sort compare a;
  let n = Array.length a in
  a.(min (n - 1) (int_of_float (p *. float_of_int n)))

let cell name samples =
  {
    svc_name = name;
    svc_count = List.length samples;
    svc_p50_ns = percentile samples 0.50;
    svc_p99_ns = percentile samples 0.99;
  }

let service_cells ~quick () =
  let n_miss = if quick then 24 else 240 in
  let n_hit = if quick then 240 else 2400 in
  let n_replan = if quick then 12 else 120 in
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ccsched-bench-%d.sock" (Unix.getpid ()))
  in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let ready = Atomic.make false in
  let srv =
    Domain.spawn (fun () ->
        Service.Server.run
          ~on_ready:(fun () -> Atomic.set ready true)
          {
            (Service.Server.default_config ~socket_path:path) with
            capacity = 8192;
            domains = Some 1;
            max_clients = 4;
          })
  in
  while not (Atomic.get ready) do
    Unix.sleepf 0.002
  done;
  let conn =
    match Service.Client.connect path with
    | Ok c -> c
    | Error e -> failwith (Service.Client.error_to_string e)
  in
  let id = ref 0 in
  let timed_rpc req =
    incr id;
    let line = Service.Protocol.request_to_json ~id:!id req in
    let t0 = Obs.Trace.now_ns () in
    match Service.Client.rpc_line conn line with
    | Ok reply -> (Obs.Trace.now_ns () - t0, reply)
    | Error e -> failwith (Service.Client.error_to_string e)
  in
  let archs = [| "mesh:2x4"; "ring:8"; "hypercube:3"; "linear:8" |] in
  (* a distinct pass budget per request makes every cache key distinct *)
  let sched_req i =
    Service.Protocol.Schedule
      {
        graph = Service.Protocol.Workload "fig7";
        arch = archs.(i mod Array.length archs);
        knobs =
          {
            Service.Protocol.default_knobs with
            Service.Protocol.passes = Some (24 + i);
          };
      }
  in
  let sessions = ref [] in
  let miss_ns =
    List.init n_miss (fun i ->
        let ns, reply = timed_rpc (sched_req i) in
        (match Service.Protocol.parse_reply reply with
        | Ok (Service.Protocol.Scheduled { session; cached = false; _ }) ->
            sessions := session :: !sessions
        | _ -> failwith "service bench: expected an uncached schedule reply");
        ns)
  in
  let hit_ns =
    List.init n_hit (fun i -> fst (timed_rpc (sched_req (i mod n_miss))))
  in
  let sessions = Array.of_list (List.rev !sessions) in
  let replan_ns =
    List.concat_map
      (fun k ->
        let req =
          Service.Protocol.Replan
            {
              session = sessions.(k mod Array.length sessions);
              fail_pes = [ 2 ];
              fail_links = [];
              deadline_ms = None;
            }
        in
        [ fst (timed_rpc req); fst (timed_rpc req) ])
      (List.init n_replan Fun.id)
  in
  let hit_rate, requests =
    match
      Service.Protocol.parse_reply
        (snd (timed_rpc Service.Protocol.Stats))
    with
    | Ok (Service.Protocol.Stats_reply { stats; _ }) ->
        ( float_of_int stats.Service.Protocol.hits
          /. float_of_int
               (max 1 (stats.Service.Protocol.hits + stats.Service.Protocol.misses)),
          stats.Service.Protocol.requests )
    | _ -> failwith "service bench: expected a stats reply"
  in
  (match
     Service.Protocol.parse_reply (snd (timed_rpc Service.Protocol.Shutdown))
   with
  | Ok (Service.Protocol.Shutdown_ack _) -> ()
  | _ -> failwith "service bench: expected a shutdown ack");
  Service.Client.close conn;
  (match Domain.join srv with
  | Ok () -> ()
  | Error msg -> failwith ("service bench: " ^ msg));
  (* Warm restart: time from opening a journalled engine to a cached
     answer (open + replay + hit), versus recomputing the schedule.
     Journal replay has to beat recompute by a wide margin — that gap
     is the whole point of `serve --state` — so check_regression gates
     the ratio. *)
  let n_warm = if quick then 12 else 60 in
  let state_dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ccsched-bench-state-%d" (Unix.getpid ()))
  in
  let warm_line = Service.Protocol.request_to_json ~id:1 (sched_req 0) in
  (let e = Service.Engine.create ~capacity:64 ~state_dir () in
   ignore (Service.Engine.handle_line e warm_line);
   Service.Engine.close e);
  let warm_ns =
    List.init n_warm (fun _ ->
        let t0 = Obs.Trace.now_ns () in
        let e = Service.Engine.create ~capacity:64 ~state_dir () in
        let reply, _ = Service.Engine.handle_line e warm_line in
        let ns = Obs.Trace.now_ns () - t0 in
        Service.Engine.close e;
        (match Service.Protocol.parse_reply reply with
        | Ok (Service.Protocol.Scheduled { cached = true; _ }) -> ()
        | _ -> failwith "service bench: warm restart missed the cache");
        ns)
  in
  (try Unix.unlink (Filename.concat state_dir "state.ccsj")
   with Unix.Unix_error _ -> ());
  (try Unix.rmdir state_dir with Unix.Unix_error _ -> ());
  let miss = cell "service_miss" miss_ns in
  let hit = cell "service_hit" hit_ns in
  let replan = cell "service_replan" replan_ns in
  let warm = cell "service_warm_restart" warm_ns in
  {
    svc_cells = [ hit; miss; replan; warm ];
    svc_requests = requests;
    svc_hit_rate = hit_rate;
    svc_speedup_p50 =
      float_of_int miss.svc_p50_ns /. float_of_int (max 1 hit.svc_p50_ns);
    svc_warm_speedup_p50 =
      float_of_int miss.svc_p50_ns /. float_of_int (max 1 warm.svc_p50_ns);
  }

let service_json svc =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"requests\":%d,\"hit_rate\":%.4f,\"hit_speedup_p50\":%.1f,\
        \"warm_restart_speedup\":%.1f,\"cells\":["
       svc.svc_requests svc.svc_hit_rate svc.svc_speedup_p50
       svc.svc_warm_speedup_p50);
  List.iteri
    (fun i c ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "{\"name\":\"%s\",\"count\":%d,\"p50_ns\":%d,\"p99_ns\":%d}"
           (json_escape c.svc_name) c.svc_count c.svc_p50_ns c.svc_p99_ns))
    svc.svc_cells;
  Buffer.add_string buf "]}";
  Buffer.contents buf

(* Telemetry overhead cell: the engine hit path (parse, cache lookup,
   reply serialisation) with structured logging off versus on, the sink
   being an in-memory buffer so the cell measures render-plus-handoff
   rather than disk.  Each figure is the minimum over several
   repetitions of the mean over many iterations, which is stable enough
   for the gate in check_regression.ml to hard-fail overhead above
   1.05x — the logging-off discipline is one atomic load, and the
   logging-on path must stay a small fraction of a cache hit. *)
type telemetry = {
  tel_log_off_ns : float;
  tel_log_on_ns : float;
  tel_overhead : float;  (* log_on / log_off *)
}

let telemetry_cell ~quick () =
  let engine = Service.Engine.create ~capacity:64 () in
  let line =
    Service.Protocol.request_to_json ~id:1
      (Service.Protocol.Schedule
         {
           graph = Service.Protocol.Workload "fig7";
           arch = "mesh:2x4";
           knobs = Service.Protocol.default_knobs;
         })
  in
  ignore (Service.Engine.handle_line engine line);
  (* warmed: every timed iteration below is a cache hit *)
  let iters = if quick then 2_000 else 5_000 in
  let reps = if quick then 6 else 12 in
  let mean_ns () =
    (* start every repetition at the same collector state: by this
       point in the run the portfolio and service phases have grown the
       major heap, and without this the log-on column's extra
       allocation pays an amplified, heap-history-dependent GC bill
       that swamps the ~1.5% signal the gate watches *)
    Gc.full_major ();
    let t0 = Obs.Trace.now_ns () in
    for _ = 1 to iters do
      ignore (Service.Engine.handle_line engine line)
    done;
    float_of_int (Obs.Trace.now_ns () - t0) /. float_of_int iters
  in
  let sink = Buffer.create 65536 in
  let log_on () =
    Obs.Log.enable (fun l ->
        if Buffer.length sink > 1_000_000 then Buffer.clear sink;
        Buffer.add_string sink l;
        Buffer.add_char sink '\n')
  in
  (* off/on repetitions are interleaved so frequency drift and competing
     load hit both columns equally instead of biasing whichever ran
     second *)
  let off = ref infinity and on = ref infinity in
  for _ = 1 to reps do
    Obs.Log.disable ();
    off := Float.min !off (mean_ns ());
    log_on ();
    on := Float.min !on (mean_ns ())
  done;
  Obs.Log.disable ();
  let off = !off and on = !on in
  {
    tel_log_off_ns = off;
    tel_log_on_ns = on;
    tel_overhead = (if off > 0. then on /. off else 1.);
  }

let telemetry_json tel =
  Printf.sprintf
    "{\"log_off_ns\":%.1f,\"log_on_ns\":%.1f,\"overhead\":%.4f}"
    tel.tel_log_off_ns tel.tel_log_on_ns tel.tel_overhead

(* Machine-speed calibration: a frozen mix of integer arithmetic and
   short-lived allocation, timed best-of-5.  The history gate divides
   ns/run figures by this before comparing records, because records
   sharing a hostname are not guaranteed to share hardware (containers
   all report the same name while the VM underneath varies — observed
   2x run-to-run on otherwise identical code).  NEVER change the loop:
   editing it rescales every comparison against existing history. *)
let calibration_ns () =
  let work () =
    let acc = ref 0 in
    for i = 1 to 2_000_000 do
      let p = (i, !acc lxor (i * 0x9e3779b1)) in
      acc := fst p + (snd p lsr 7)
    done;
    !acc
  in
  ignore (Sys.opaque_identity (work ()));
  let best = ref max_int in
  for _ = 1 to 5 do
    let t0 = Obs.Trace.now_ns () in
    ignore (Sys.opaque_identity (work ()));
    let dt = Obs.Trace.now_ns () - t0 in
    if dt < !best then best := dt
  done;
  !best

(* One line per run appended to BENCH_history.jsonl; check_regression.ml
   reads it back (schema "ccsched-bench-history/1", see bench/README.md).
   ns/run figures are only comparable between records with a shared
   calibration baseline (hostname alone does not pin the hardware), so
   host, --quick setting and calibration are all recorded. *)
let append_history path ~quick ~cal rows sched_rows scale pf_cells svc tel =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"schema\":\"ccsched-bench-history/1\",\"unix_time\":%.0f,\
        \"host\":\"%s\",\"quick\":%b,\"calibration_ns\":%d,\"benchmarks\":["
       (Unix.time ())
       (json_escape (Unix.gethostname ()))
       quick cal);
  List.iteri
    (fun i (name, ns) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "{\"name\":\"%s\",\"ns_per_run\":%.1f}"
           (json_escape name) ns))
    rows;
  Buffer.add_string buf "],\"schedules\":[";
  let first = ref true in
  List.iter
    (fun (wn, per_topo, _) ->
      List.iter
        (fun (tn, startup, best, passes) ->
          if not !first then Buffer.add_char buf ',';
          first := false;
          Buffer.add_string buf
            (Printf.sprintf
               "{\"workload\":\"%s\",\"topology\":\"%s\",\"startup\":%d,\
                \"best\":%d,\"passes\":%d}"
               (json_escape wn) (json_escape tn) startup best passes))
        per_topo)
    sched_rows;
  let pf_speedup, pf_match = portfolio_summary pf_cells in
  Buffer.add_string buf
    (Printf.sprintf
       "],\"portfolio\":{\"aggregate_speedup\":%.2f,\"winner_match\":%b,\
        \"cells\":["
       pf_speedup pf_match);
  List.iteri
    (fun i c ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "{\"workload\":\"%s\",\"topology\":\"%s\",\"seq_ms\":%.1f,\
            \"portfolio_ms\":%.1f,\"seq_passes\":%d,\"portfolio_passes\":%d,\
            \"winner_len\":%d,\"winner_match\":%b}"
           (json_escape c.pf_workload) (json_escape c.pf_topology) c.seq_ms
           c.pf_ms c.seq_passes c.pf_passes c.winner_len c.winner_match))
    pf_cells;
  Buffer.add_string buf "]},\"scale\":";
  Buffer.add_string buf (scale_json scale);
  Buffer.add_string buf ",\"service\":";
  Buffer.add_string buf (service_json svc);
  Buffer.add_string buf ",\"telemetry\":";
  Buffer.add_string buf (telemetry_json tel);
  Buffer.add_string buf "}\n";
  output_string oc (Buffer.contents buf);
  close_out oc;
  Fmt.pr "appended history record to %s@." path

(* One fully traced compaction drive on the headline workload: the
   span rollup attributes the drive's wall-clock to pipeline phases
   (startup sweep, compaction passes, rotation), and the counter dump
   records how much work each phase did.  Tracing is off during the
   Bechamel measurements above, so these numbers are observational
   only and cost the measured paths nothing. *)
let phase_profile () =
  let elliptic = List.assoc "elliptic" (workloads ()) in
  let mesh16 = List.assoc "mesh4x4" (topologies ()) in
  Obs.Profile.enable ();
  ignore (Compaction.run_on ~validate:false elliptic mesh16);
  Obs.Profile.disable ();
  (Obs.Trace.aggregate (), Obs.Counters.dump ())

(* The whole document is rendered into one Buffer and written with a
   single [output_string]: partial files from a crash mid-emission
   cannot then look like valid (truncated-but-parseable) JSON, and the
   emission itself stops being a long sequence of tiny writes. *)
let emit_json path ~cal rows scale pf_cells svc tel =
  let find name = List.assoc_opt name rows in
  let speedup =
    match
      ( find "startup-naive-elliptic-mesh4x4",
        find "startup-new-elliptic-mesh4x4" )
    with
    | Some naive, Some indexed when indexed > 0. -> Some (naive /. indexed)
    | _ -> None
  in
  let recorder_overhead =
    match
      ( find "simulate-recorded-elliptic-mesh4x4",
        find "simulate-plain-elliptic-mesh4x4" )
    with
    | Some recorded, Some plain when plain > 0. -> Some (recorded /. plain)
    | _ -> None
  in
  let buf = Buffer.create 8192 in
  Printf.bprintf buf "{\n  \"calibration_ns\": %d,\n  \"benchmarks\": [\n" cal;
  List.iteri
    (fun i (name, ns) ->
      Printf.bprintf buf "    {\"name\": \"%s\", \"ns_per_run\": %.1f}%s\n"
        (json_escape name) ns
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Buffer.add_string buf "  ]";
  (match speedup with
  | Some r ->
      Printf.bprintf buf ",\n  \"startup_speedup_elliptic_mesh4x4\": %.2f" r
  | None -> ());
  (match recorder_overhead with
  | Some r ->
      Printf.bprintf buf ",\n  \"sim_recorder_overhead_elliptic_mesh4x4\": %.2f"
        r
  | None -> ());
  let pf_speedup, pf_match = portfolio_summary pf_cells in
  Printf.bprintf buf
    ",\n  \"portfolio_speedup_aggregate\": %.2f,\n  \
     \"portfolio_winner_match\": %b,\n  \"portfolio_cells\": [\n"
    pf_speedup pf_match;
  List.iteri
    (fun i c ->
      Printf.bprintf buf
        "    {\"workload\": \"%s\", \"topology\": \"%s\", \"seq_ms\": %.1f, \
         \"portfolio_ms\": %.1f, \"seq_passes\": %d, \"portfolio_passes\": \
         %d, \"winner_len\": %d, \"winner_match\": %b}%s\n"
        (json_escape c.pf_workload) (json_escape c.pf_topology) c.seq_ms
        c.pf_ms c.seq_passes c.pf_passes c.winner_len c.winner_match
        (if i = List.length pf_cells - 1 then "" else ","))
    pf_cells;
  Buffer.add_string buf "  ]";
  Printf.bprintf buf ",\n  \"scale\": %s" (scale_json scale);
  Printf.bprintf buf ",\n  \"service\": %s" (service_json svc);
  Printf.bprintf buf ",\n  \"telemetry\": %s" (telemetry_json tel);
  let phases, counters = phase_profile () in
  Buffer.add_string buf ",\n  \"phases_elliptic_mesh4x4\": [\n";
  List.iteri
    (fun i (name, count, total_ns) ->
      Printf.bprintf buf
        "    {\"span\": \"%s\", \"count\": %d, \"total_ns\": %d}%s\n"
        (json_escape name) count total_ns
        (if i = List.length phases - 1 then "" else ","))
    phases;
  Buffer.add_string buf "  ],\n  \"counters_elliptic_mesh4x4\": {\n";
  List.iteri
    (fun i (name, v) ->
      Printf.bprintf buf "    \"%s\": %d%s\n" (json_escape name) v
        (if i = List.length counters - 1 then "" else ","))
    counters;
  Buffer.add_string buf "  }";
  Buffer.add_string buf "\n}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  (match speedup with
  | Some r -> Fmt.pr "startup speedup (naive / indexed): %.2fx@." r
  | None -> ());
  (match recorder_overhead with
  | Some r -> Fmt.pr "flight-recorder overhead (recorded / plain): %.2fx@." r
  | None -> ());
  Fmt.pr "wrote %s@." path

let () =
  let quick = Array.exists (( = ) "--quick") Sys.argv in
  let quota = if quick then 0.05 else 0.5 in
  let scale = scale_cells () in
  List.iter
    (fun c ->
      Fmt.pr
        "scale %-16s %7d nodes on %-8s gen %7.1f ms  startup %8.1f ms  \
         %7.1f ns/node  len %6d  peak rss %5.1f MB@."
        c.sc_name c.sc_nodes c.sc_topology
        (float_of_int c.sc_gen_ns /. 1e6)
        (float_of_int c.sc_startup_ns /. 1e6)
        c.sc_ns_per_node c.sc_startup_len
        (float_of_int c.sc_startup_peak_rss /. 1048576.))
    scale;
  (* The 100k-node cell grows the major heap to ~200 MB; left in place
     it would tax every Bechamel measurement below with GC work over a
     heap an order of magnitude larger than the workloads need, reading
     as a uniform ns/run regression.  Return the heap to baseline before
     measuring anything else. *)
  Gc.compact ();
  let cal = calibration_ns () in
  Fmt.pr "calibration %d ns (frozen loop, best of 5)@." cal;
  let rows =
    measure ~quota (tests ())
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  List.iter (fun (name, ns) -> Fmt.pr "%-36s %14.1f ns/run@." name ns) rows;
  let sched_rows = schedule_rows () in
  List.iter
    (fun (wn, per_topo, counters) ->
      List.iter
        (fun (tn, startup, best, passes) ->
          Fmt.pr "schedule %-10s %-8s startup %3d -> best %3d (%d passes)@."
            wn tn startup best passes)
        per_topo;
      let find name = List.assoc_opt name counters in
      match (find "compaction.passes", find "startup.steps") with
      | Some passes, Some steps ->
          Fmt.pr "counters %-10s compaction.passes=%d startup.steps=%d@." wn
            passes steps
      | _ -> ())
    sched_rows;
  let pf_cells = portfolio_cells () in
  List.iter
    (fun c ->
      Fmt.pr
        "portfolio %-10s %-8s seq %7.1f ms (%4d passes) -> portfolio %7.1f \
         ms (%4d passes) x%.2f winner %d %s@."
        c.pf_workload c.pf_topology c.seq_ms c.seq_passes c.pf_ms c.pf_passes
        (if c.pf_ms > 0. then c.seq_ms /. c.pf_ms else 0.)
        c.winner_len
        (if c.winner_match then "match" else "MISMATCH"))
    pf_cells;
  let pf_speedup, pf_match = portfolio_summary pf_cells in
  Fmt.pr "portfolio aggregate speedup (seq / portfolio): %.2fx, winners %s@."
    pf_speedup
    (if pf_match then "byte-identical" else "DIVERGED");
  let svc = service_cells ~quick () in
  List.iter
    (fun c ->
      Fmt.pr "service %-14s %5d requests  p50 %9d ns  p99 %9d ns@." c.svc_name
        c.svc_count c.svc_p50_ns c.svc_p99_ns)
    svc.svc_cells;
  Fmt.pr
    "service hit rate %.2f over %d requests; hit p50 is %.1fx below miss p50@."
    svc.svc_hit_rate svc.svc_requests svc.svc_speedup_p50;
  let tel = telemetry_cell ~quick () in
  Fmt.pr
    "telemetry hit path log-off %.1f ns, log-on %.1f ns (overhead %.3fx)@."
    tel.tel_log_off_ns tel.tel_log_on_ns tel.tel_overhead;
  emit_json "BENCH_sched.json" ~cal rows scale pf_cells svc tel;
  append_history "BENCH_history.jsonl" ~quick ~cal rows sched_rows scale
    pf_cells svc tel
