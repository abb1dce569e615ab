(* Request handling over the content-addressed schedule cache.

   Every request line takes one pass: [prepare] parses it and, for a
   schedule, resolves it once (graph, legality, topology, knob check,
   cache key); [dispatch] looks the key up, computes or takes a
   precomputed result, commits, then writes the reply, its log line and
   its trace splice.  [handle_line] is dispatch after prepare;
   [handle_batch] prepares every line, computes the distinct
   cache-missing schedules in parallel, then dispatches in arrival
   order.

   A cache entry is the journal record that derives it — the reply
   fields plus the request (or parent and fault set) behind them — and
   the live schedule and topology a replan needs.  A journal-restored
   entry starts without the live pair; the deterministic scheduler
   rebuilds it the first time a replan chains on the entry.

   Coherence: a key (Cyclo.Cachekey) covers every input the reply
   bytes depend on, and the scheduler is deterministic, so serving a
   hit is byte-identical to recomputing — the golden test in
   test/test_service.ml pins this against the one-shot CLI path. *)

module Csdfg = Dataflow.Csdfg
module Schedule = Cyclo.Schedule
module Compaction = Cyclo.Compaction
module Cachekey = Cyclo.Cachekey
module P = Protocol

let c_requests = Obs.Counters.counter "service.requests"
let c_hits = Obs.Counters.counter "service.cache_hits"
let c_misses = Obs.Counters.counter "service.cache_misses"
let c_evictions = Obs.Counters.counter "service.cache_evictions"

type entry = {
  mutable live : (Schedule.t * Topology.t) option;
      (* None for a journal-restored entry until a replan needs it *)
  record : Statefile.record;
}

type t = {
  cache : entry Lru.t;
  suite : (string, Csdfg.t) Hashtbl.t;
      (* the built-in workloads served so far, each built and validated
         on its first lookup and then read from here on the hit path *)
  statefile : Statefile.t option;
  default_deadline_ms : int option;
  created : float;  (* Unix.gettimeofday at create, for health uptime *)
  mutable requests : int;
  mutable hits : int;
  mutable misses : int;
  mutable queue_depth : int;
  mutable active_clients : int;
  mutable last_replan : string;
}

let build_id = "ccsched/1.0.0"

let create ?(capacity = 256) ?default_deadline_ms ?state_dir () =
  let suite = Hashtbl.create 32 in
  let cache = Lru.create ~capacity in
  let statefile =
    match state_dir with
    | None -> None
    | Some dir -> (
        match Statefile.open_ ~dir with
        | Error msg -> failwith (Printf.sprintf "cannot open state: %s" msg)
        | Ok (sf, records, dropped_bytes) ->
            (* journal order is append order, oldest first, so replaying
               in order reproduces the pre-crash recency (the newest
               records land most-recently-used, and a re-journalled key
               simply refreshes its slot) *)
            List.iter
              (fun r ->
                Lru.add cache (Statefile.key r) { live = None; record = r })
              records;
            Obs.Log.emit
              ~kv:
                [
                  ("journal", Obs.Log.S (Statefile.path sf));
                  ("records", Obs.Log.I (List.length records));
                  ("entries", Obs.Log.I (Lru.length cache));
                  ("dropped_bytes", Obs.Log.I dropped_bytes);
                ]
              (if dropped_bytes > 0 then Obs.Log.Warn else Obs.Log.Info)
              "serve.restore";
            Some sf)
  in
  {
    cache;
    suite;
    statefile;
    default_deadline_ms;
    created = Unix.gettimeofday ();
    requests = 0;
    hits = 0;
    misses = 0;
    queue_depth = 0;
    active_clients = 0;
    last_replan = "none";
  }

let close t = Option.iter Statefile.close t.statefile

let stats t =
  {
    P.hits = t.hits;
    misses = t.misses;
    evictions = Lru.evictions t.cache;
    entries = Lru.length t.cache;
    capacity = Lru.capacity t.cache;
    requests = t.requests;
  }

let cache_keys t = Lru.keys t.cache

let set_load t ~queue_depth ~active_clients =
  t.queue_depth <- queue_depth;
  t.active_clients <- active_clients

let health t =
  let resolved = t.hits + t.misses in
  let m = Obs.Resource.sample_process () in
  {
    P.build = build_id;
    uptime_ns = int_of_float ((Unix.gettimeofday () -. t.created) *. 1e9);
    rpc_requests = t.requests;
    hit_rate =
      (if resolved = 0 then 0.
       else float_of_int t.hits /. float_of_int resolved);
    cache_entries = Lru.length t.cache;
    cache_capacity = Lru.capacity t.cache;
    queue_depth = t.queue_depth;
    active_clients = t.active_clients;
    last_replan = t.last_replan;
    rss_bytes = m.Obs.Resource.rss_bytes;
    peak_rss_bytes = m.Obs.Resource.peak_rss_bytes;
    heap_words = m.Obs.Resource.heap_words;
    gc_minor_collections = m.Obs.Resource.p_minor_collections;
    gc_major_collections = m.Obs.Resource.p_major_collections;
  }

let record_hit t =
  t.hits <- t.hits + 1;
  Obs.Counters.incr c_hits

let record_miss t =
  t.misses <- t.misses + 1;
  Obs.Counters.incr c_misses

(* ------------------------------------------------------------------ *)
(* Entries                                                              *)
(* ------------------------------------------------------------------ *)

(* A schedule request after its one resolve. *)
type resolved = {
  key : string;
  graph : Csdfg.t;  (* before slow-down *)
  topo : Topology.t;
  spec : P.graph_spec;  (* as requested, for the journal *)
  arch : string;
  knobs : P.knobs;
  deadline : float option;  (* effective budget, seconds *)
}

let err code fmt = Printf.ksprintf (fun message -> P.err code message) fmt

(* The per-request deadline, falling back to the daemon-wide default.
   It budgets the server-side computation (the search passes), not the
   whole round trip: queueing and writes are governed separately by the
   server's admission control and write timeouts. *)
let effective_deadline t deadline_ms =
  match (deadline_ms, t.default_deadline_ms) with
  | Some ms, _ | None, Some ms -> Some (float_of_int ms /. 1000.)
  | None, None -> None

let deadline_ns_of = function
  | None -> None
  | Some seconds ->
      Some (Obs.Trace.now_ns () + int_of_float (seconds *. 1e9))

let remaining_s = function
  | None -> None
  | Some ns -> Some (float_of_int (ns - Obs.Trace.now_ns ()) /. 1e9)

let expired = function
  | None -> false
  | Some ns -> Obs.Trace.now_ns () >= ns

let resolve t ~graph ~arch (knobs : P.knobs) =
  let ( let* ) = Result.bind in
  let* g =
    match graph with
    | P.Workload name -> (
        match Hashtbl.find_opt t.suite name with
        | Some g -> Ok g
        | None -> (
            match Workloads.Suite.find name with
            | Some g when Csdfg.is_legal g ->
                Hashtbl.replace t.suite name g;
                Ok g
            | _ ->
                Error
                  (err "bad_request" "unknown workload %S (see `ccsched list`)"
                     name)))
    | P.Inline text ->
        let* g =
          match Dataflow.Io.of_string text with
          | Ok g -> Ok g
          | Error e ->
              Error (err "bad_graph" "%s" (Dataflow.Io.error_to_string e))
        in
        let* () = Result.map_error (err "bad_graph" "%s") (Csdfg.check g) in
        Ok g
  in
  let* topo =
    match Topology.of_spec arch with
    | Ok topo -> Ok topo
    | Error msg -> Error (err "bad_request" "%s" msg)
  in
  let* () =
    Result.map_error (err "bad_request" "%s") (Cachekey.validate ~topo knobs)
  in
  Ok
    {
      key = Cachekey.key knobs g topo;
      graph = g;
      topo;
      spec = graph;
      arch;
      knobs;
      deadline = effective_deadline t knobs.P.deadline_ms;
    }

(* The exact one-shot pipeline: slow-down transform, then compaction
   under the requested transport.  Deterministic, and shared state free
   so batches may run it on any domain.  A timed-out search is an
   error, never a cache entry: partial results must not be served as if
   they were the content-addressed answer. *)
let compact r =
  let k = r.knobs in
  let g, comm = Cachekey.instance k r.graph r.topo in
  match
    Compaction.run ~mode:k.P.mode ?speeds:k.P.speeds ?passes:k.P.passes
      ?time_budget:r.deadline g comm
  with
  | res when res.Compaction.timed_out ->
      let best_length = Schedule.length res.Compaction.best in
      Error
        (P.err ~best_length "deadline_exceeded"
           (Printf.sprintf
              "schedule search exceeded its deadline after %d passes \
               (best-so-far length %d)"
              (List.length res.Compaction.trace)
              best_length))
  | res -> Ok res
  | exception (Invalid_argument msg | Failure msg) ->
      Error (err "internal" "scheduling failed: %s" msg)

let compute r =
  Result.map
    (fun res ->
      let best = res.Compaction.best in
      {
        live = Some (best, r.topo);
        record =
          Statefile.Sched
            {
              s_key = r.key;
              s_graph = r.spec;
              s_arch = r.arch;
              s_knobs = r.knobs;
              s_length = Schedule.length best;
              s_passes = List.length res.Compaction.trace;
              s_schedule_json = Cyclo.Export.to_json best;
            };
      })
    (compact r)

(* Apply a wire fault set (1-based) to a live schedule.  [failed] words
   every failure but an expired deadline: a replan request and the
   rebuild of a restored replan entry report them differently. *)
let degrade ~deadline_ns ~failed (sched, topo) ~fail_pes ~fail_links =
  let failed_pes = List.map (fun p -> p - 1) fail_pes in
  let failed_links = List.map (fun (a, b) -> (a - 1, b - 1)) fail_links in
  match
    Cyclo.Degrade.replan ?time_budget:(remaining_s deadline_ns) sched topo
      ~failed_pes ~failed_links
  with
  | Ok plan -> Ok plan
  | Error msg when msg = Cyclo.Degrade.deadline_error ->
      Error (err "deadline_exceeded" "%s" msg)
  | Error msg -> Error (failed msg)
  | exception (Invalid_argument msg | Failure msg) -> Error (failed msg)

(* Rebuild a restored entry's live schedule/topology from its record.
   The scheduler is deterministic, so the rebuilt schedule is the one
   whose export bytes the record already serves; the rebuild is kept
   on the entry, so a replan chain is re-derived at most once per
   restart.  [deadline_ns] caps the whole recursive rebuild — it is the
   requesting replan's own budget. *)
let rec force t ~deadline_ns entry =
  match entry.live with
  | Some live -> Ok live
  | None ->
      let ( let* ) = Result.bind in
      let result =
        if expired deadline_ns then
          Error
            (err "deadline_exceeded"
               "deadline expired while rebuilding the session's schedule")
        else
          match entry.record with
          | Statefile.Sched s ->
              let* r = resolve t ~graph:s.s_graph ~arch:s.s_arch s.s_knobs in
              let* res =
                compact { r with deadline = remaining_s deadline_ns }
              in
              Ok (res.Compaction.best, r.topo)
          | Statefile.Replan rp ->
              let* parent =
                Option.to_result
                  ~none:
                    (err "unknown_session"
                       "parent session %s of this replan chain was evicted \
                        — re-send the original schedule request"
                       rp.r_parent)
                  (Lru.find t.cache rp.r_parent)
              in
              let* live = force t ~deadline_ns parent in
              let* plan =
                degrade ~deadline_ns
                  ~failed:(err "internal" "rebuild failed: %s")
                  live ~fail_pes:rp.r_fail_pes ~fail_links:rp.r_fail_links
              in
              Ok (plan.Cyclo.Degrade.schedule, plan.Cyclo.Degrade.topology)
      in
      Result.iter (fun live -> entry.live <- Some live) result;
      result

let replan t ~deadline_ns ~key ~session ~fail_pes ~fail_links =
  let ( let* ) = Result.bind in
  let* parent =
    Option.to_result
      ~none:
        (err "unknown_session"
           "no cached schedule for session %s (never created, or evicted \
            — re-send the schedule request)"
           session)
      (Lru.find t.cache session)
  in
  let* ((_, parent_topo) as live) = force t ~deadline_ns parent in
  let np = Topology.n_processors parent_topo in
  let* () =
    match List.find_opt (fun p -> p < 1 || p > np) fail_pes with
    | Some p ->
        Error (err "bad_request" "fail_pes entry %d out of range 1..%d" p np)
    | None -> (
        match
          List.find_opt
            (fun (a, b) -> a < 1 || a > np || b < 1 || b > np || a = b)
            fail_links
        with
        | Some (a, b) ->
            Error
              (err "bad_request"
                 "fail_links entry [%d,%d] is not a pair of distinct \
                  processors in 1..%d"
                 a b np)
        | None -> Ok ())
  in
  let* plan =
    if expired deadline_ns then
      Error
        (err "deadline_exceeded" "deadline expired before replanning began")
    else
      degrade ~deadline_ns ~failed:(err "replan_failed" "%s") live ~fail_pes
        ~fail_links
  in
  let sched = plan.Cyclo.Degrade.schedule in
  Ok
    {
      live = Some (sched, plan.Cyclo.Degrade.topology);
      record =
        Statefile.Replan
          {
            r_key = key;
            r_parent = session;
            r_fail_pes = fail_pes;
            r_fail_links = fail_links;
            r_length = Schedule.length sched;
            r_strategy =
              (match plan.Cyclo.Degrade.strategy with
              | Cyclo.Degrade.Patched -> "patched"
              | Cyclo.Degrade.Rebuilt -> "rebuilt");
            r_migration_cost = plan.Cyclo.Degrade.migration_cost;
            r_moved = List.length plan.Cyclo.Degrade.moved;
            r_surviving = Array.length plan.Cyclo.Degrade.surviving;
            r_schedule_json = Cyclo.Export.to_json sched;
          };
    }

let journal_records t =
  (* oldest-first so replay reproduces the recency order; refreshing
     each key in that order while iterating leaves the order intact *)
  List.rev (Lru.keys t.cache)
  |> List.filter_map (fun key ->
         Option.map (fun e -> e.record) (Lru.find t.cache key))

let commit t entry =
  let key = Statefile.key entry.record in
  let before = Lru.evictions t.cache in
  Lru.add t.cache key entry;
  let evicted = Lru.evictions t.cache - before in
  if evicted > 0 then begin
    Obs.Counters.incr ~by:evicted c_evictions;
    if Obs.Log.enabled () then
      Obs.Log.emit ~session:key
        ~kv:[ ("evicted", Obs.Log.I evicted) ]
        Obs.Log.Info "eviction"
  end;
  match t.statefile with
  | None -> ()
  | Some sf ->
      Statefile.append sf entry.record;
      (* Compaction bound: once the journal holds more appends than
         twice the live entries (≥ 64 so small caches do not thrash),
         evicted and superseded records dominate — rewrite it to just
         the current entries. *)
      if Statefile.appended sf >= max 64 (2 * Lru.length t.cache) then begin
        let records = journal_records t in
        Statefile.compact sf records;
        Obs.Log.emit
          ~kv:
            [
              ("journal", Obs.Log.S (Statefile.path sf));
              ("records", Obs.Log.I (List.length records));
            ]
          Obs.Log.Info "serve.compact_state"
      end

(* The reply an entry renders, straight from its record.  Serving a
   replan also makes its strategy the one [health] reports. *)
let reply_of t ~id ~cached entry =
  match entry.record with
  | Statefile.Sched s ->
      P.Scheduled
        {
          id;
          session = s.s_key;
          cached;
          length = s.s_length;
          passes = s.s_passes;
          schedule_json = s.s_schedule_json;
        }
  | Statefile.Replan r ->
      t.last_replan <- r.r_strategy;
      P.Replanned
        {
          id;
          session = r.r_key;
          cached;
          strategy = r.r_strategy;
          migration_cost = r.r_migration_cost;
          moved = r.r_moved;
          length = r.r_length;
          surviving = r.r_surviving;
          schedule_json = r.r_schedule_json;
        }

(* ------------------------------------------------------------------ *)
(* Prepare and dispatch                                                 *)
(* ------------------------------------------------------------------ *)

type op =
  | Schedule of resolved
  | Replan of {
      session : string;
      fail_pes : int list;
      fail_links : (int * int) list;
      deadline_ms : int option;
    }
  | Stats
  | Metrics
  | Health
  | Shutdown

(* A request line after its one parse and, for a schedule, its one
   resolve.  A line that fails either is answered with [Error]. *)
type prepared = {
  t0 : int;  (* clock at the start of the prepare *)
  spans : (string * int) list ref option;
      (* a "trace":true line's spans so far, newest first *)
  parsed : (int * op, int option * P.err) result;
}

(* Time [f] as span [name] of a traced line; an untraced one reads no
   clock here. *)
let tick spans name f =
  match spans with
  | None -> f ()
  | Some r ->
      let t0 = Obs.Trace.now_ns () in
      let x = f () in
      r := (name, Obs.Trace.now_ns () - t0) :: !r;
      x

let prepare t line =
  let t0 = Obs.Trace.now_ns () in
  match P.parse_request line with
  | Error e -> { t0; spans = None; parsed = Error e }
  | Ok (id, request, traced) ->
      let spans =
        if traced then Some (ref [ ("parse", Obs.Trace.now_ns () - t0) ])
        else None
      in
      let parsed =
        match request with
        | P.Schedule { graph; arch; knobs } -> (
            match
              tick spans "resolve" (fun () -> resolve t ~graph ~arch knobs)
            with
            | Ok r -> Ok (id, Schedule r)
            | Error e -> Error (Some id, e))
        | P.Replan { session; fail_pes; fail_links; deadline_ms } ->
            Ok (id, Replan { session; fail_pes; fail_links; deadline_ms })
        | P.Stats -> Ok (id, Stats)
        | P.Metrics -> Ok (id, Metrics)
        | P.Health -> Ok (id, Health)
        | P.Shutdown -> Ok (id, Shutdown)
      in
      { t0; spans; parsed }

(* A cache miss is computed here unless [precomputed] (the batch's
   parallel results, by key) holds it; each precomputed result is
   consumed — committed and counted as the miss — by the first line
   that needs it, so later identical lines hit the cache exactly as
   they would sequentially. *)
let answer ?precomputed t ~spans ~id = function
  | Stats -> P.Stats_reply { id; stats = stats t }
  | Metrics ->
      P.Metrics_reply { id; body = tick spans "render" Obs.Exposition.render }
  | Health -> P.Health_reply { id; health = health t }
  | Shutdown -> P.Shutdown_ack { id }
  | Schedule r -> (
      match tick spans "cache_lookup" (fun () -> Lru.find t.cache r.key) with
      | Some entry ->
          record_hit t;
          reply_of t ~id ~cached:true entry
      | None -> (
          let computed =
            match
              Option.bind precomputed (fun tbl ->
                  let c = Hashtbl.find_opt tbl r.key in
                  Hashtbl.remove tbl r.key;
                  c)
            with
            | Some c -> c
            | None -> tick spans "compaction" (fun () -> compute r)
          in
          record_miss t;
          match computed with
          | Ok entry ->
              commit t entry;
              reply_of t ~id ~cached:false entry
          | Error e -> P.Error_reply { id = Some id; err = e }))
  | Replan { session; fail_pes; fail_links; deadline_ms } -> (
      let key =
        Cachekey.replan_digest ~parent:session ~failed_pes:fail_pes
          ~failed_links:fail_links
      in
      match tick spans "cache_lookup" (fun () -> Lru.find t.cache key) with
      | Some entry ->
          record_hit t;
          reply_of t ~id ~cached:true entry
      | None -> (
          let deadline_ns = deadline_ns_of (effective_deadline t deadline_ms) in
          match
            tick spans "replan" (fun () ->
                replan t ~deadline_ns ~key ~session ~fail_pes ~fail_links)
          with
          | Ok entry ->
              record_miss t;
              commit t entry;
              reply_of t ~id ~cached:false entry
          | Error e ->
              t.last_replan <- "failed";
              P.Error_reply { id = Some id; err = e }))

(* One NDJSON log line per request/reply.  Guarded on [Log.enabled] so
   the kv lists are never allocated while logging is off. *)
let log_reply ~t0 ?request_id reply =
  if Obs.Log.enabled () then begin
    let module L = Obs.Log in
    let duration_ns = Obs.Trace.now_ns () - t0 in
    match reply with
    | P.Scheduled { session; cached; length; _ } ->
        L.emit ?request_id ~session ~duration_ns
          ~kv:
            [
              ("op", L.S "schedule");
              ("cached", L.B cached);
              ("length", L.I length);
            ]
          L.Info "request"
    | P.Replanned { session; cached; strategy; moved; length; _ } ->
        L.emit ?request_id ~session ~duration_ns
          ~kv:
            [
              ("op", L.S "replan");
              ("strategy", L.S strategy);
              ("cached", L.B cached);
              ("moved", L.I moved);
              ("length", L.I length);
            ]
          L.Info "replan"
    | P.Stats_reply _ ->
        L.emit ?request_id ~duration_ns ~kv:[ ("op", L.S "stats") ] L.Info
          "request"
    | P.Metrics_reply _ ->
        L.emit ?request_id ~duration_ns ~kv:[ ("op", L.S "metrics") ] L.Info
          "request"
    | P.Health_reply _ ->
        L.emit ?request_id ~duration_ns ~kv:[ ("op", L.S "health") ] L.Info
          "request"
    | P.Shutdown_ack _ ->
        L.emit ?request_id ~duration_ns ~kv:[ ("op", L.S "shutdown") ] L.Info
          "request"
    | P.Error_reply { err = e; _ } ->
        (* deadline expiries get their own event name so the log stream
           explains every cancelled request without decoding codes *)
        let event =
          if e.P.code = "deadline_exceeded" then "serve.deadline_exceeded"
          else "error"
        in
        L.emit ?request_id ~duration_ns
          ~kv:[ ("code", L.S e.P.code) ]
          L.Warn event
  end

(* [start] is when the line's own work began, as if its prepare had
   run just before this dispatch: log [duration_ns] covers the two. *)
let dispatch ?precomputed t ~start p =
  t.requests <- t.requests + 1;
  Obs.Counters.incr c_requests;
  let request_id, reply, continue =
    match p.parsed with
    | Error (id, e) -> (id, P.Error_reply { id; err = e }, `Continue)
    | Ok (id, op) ->
        ( Some id,
          answer ?precomputed t ~spans:p.spans ~id op,
          match op with Shutdown -> `Shutdown | _ -> `Continue )
  in
  let out =
    match p.spans with
    | None -> P.reply_to_json reply
    | Some spans ->
        (* Traced: the untraced serialisation with the span list spliced
           in front of the closing brace — byte-identical modulo the
           trailing "trace" field (pinned in test_service.ml). *)
        let e0 = Obs.Trace.now_ns () in
        let base = P.reply_to_json reply in
        let export = ("export", Obs.Trace.now_ns () - e0) in
        P.with_trace base (List.rev (export :: !spans))
  in
  log_reply ~t0:start ?request_id reply;
  (out, continue)

let handle_line t line =
  let p = prepare t line in
  dispatch t ~start:p.t0 p

let handle_batch ?domains t lines =
  let logging = Obs.Log.enabled () in
  let prepared =
    List.map
      (fun line ->
        let p = prepare t line in
        (p, if logging then Obs.Trace.now_ns () - p.t0 else 0))
      lines
  in
  (* The distinct schedule keys that miss the cache now, in arrival
     order, computed in parallel.  Traced lines are left out so their
     compaction span measures the search itself.  Replans stay
     sequential — they may chain on sessions committed earlier in the
     batch, and cost a fraction of a compaction search. *)
  let seen = Hashtbl.create 8 in
  let misses =
    List.filter_map
      (fun (p, _) ->
        match p with
        | { spans = None; parsed = Ok (_, Schedule r); _ }
          when not (Lru.mem t.cache r.key || Hashtbl.mem seen r.key) ->
            Hashtbl.add seen r.key ();
            Some r
        | _ -> None)
      prepared
  in
  let precomputed = Hashtbl.create (List.length misses) in
  List.iter2
    (fun r c -> Hashtbl.add precomputed r.key c)
    misses
    (Parutil.Parallel.map ?domains compute misses);
  (* In-order dispatch: byte-identical to handle_line on each line in
     turn. *)
  List.map
    (fun (p, prep_ns) ->
      let start = if logging then Obs.Trace.now_ns () - prep_ns else p.t0 in
      dispatch ~precomputed t ~start p)
    prepared
