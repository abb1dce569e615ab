(* Request handling over the content-addressed schedule cache.

   The cache entry keeps the schedule and its topology (not just the
   reply bytes) because replan requests need them: a replan looks up
   its parent session, derives the degraded machine with Cyclo.Degrade
   and caches the result under its own key — so replans chain and
   repeat replans are hits.

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

type replan_info = {
  strategy : string;
  migration_cost : int;
  moved : int;
  surviving : int;
}

(* Where an entry came from — enough to re-derive its schedule.  A
   journal-restored entry has [live = None]: its reply bytes are served
   straight from [schedule_json], and the in-memory schedule/topology
   are only rebuilt (deterministically, so byte-identically) the first
   time a replan chains on it. *)
type source =
  | Sched_of of { graph : P.graph_spec; arch : string; knobs : P.knobs }
  | Replan_of of {
      parent : string;
      fail_pes : int list;  (* 1-based, as on the wire *)
      fail_links : (int * int) list;
    }

type entry = {
  mutable live : (Schedule.t * Topology.t) option;
  source : source;
  schedule_json : string;  (* Export.to_json of the schedule, one line *)
  length : int;
  passes : int;
  replan : replan_info option;
}

type t = {
  cache : entry Lru.t;
  suite : (string, Csdfg.t) Hashtbl.t;
      (* built-in workloads, constructed and validated once — Suite.find
         rebuilds every graph per call, far too slow for the hit path *)
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

let entry_of_record = function
  | Statefile.Sched s ->
      ( s.Statefile.s_key,
        {
          live = None;
          source =
            Sched_of
              {
                graph = s.Statefile.s_graph;
                arch = s.Statefile.s_arch;
                knobs = s.Statefile.s_knobs;
              };
          schedule_json = s.Statefile.s_schedule_json;
          length = s.Statefile.s_length;
          passes = s.Statefile.s_passes;
          replan = None;
        } )
  | Statefile.Replan r ->
      ( r.Statefile.r_key,
        {
          live = None;
          source =
            Replan_of
              {
                parent = r.Statefile.r_parent;
                fail_pes = r.Statefile.r_fail_pes;
                fail_links = r.Statefile.r_fail_links;
              };
          schedule_json = r.Statefile.r_schedule_json;
          length = r.Statefile.r_length;
          passes = 0;
          replan =
            Some
              {
                strategy = r.Statefile.r_strategy;
                migration_cost = r.Statefile.r_migration_cost;
                moved = r.Statefile.r_moved;
                surviving = r.Statefile.r_surviving;
              };
        } )

let record_of_entry key e =
  match (e.source, e.replan) with
  | Sched_of { graph; arch; knobs }, _ ->
      Some
        (Statefile.Sched
           {
             Statefile.s_key = key;
             s_graph = graph;
             s_arch = arch;
             s_knobs = knobs;
             s_length = e.length;
             s_passes = e.passes;
             s_schedule_json = e.schedule_json;
           })
  | Replan_of { parent; fail_pes; fail_links }, Some info ->
      Some
        (Statefile.Replan
           {
             Statefile.r_key = key;
             r_parent = parent;
             r_fail_pes = fail_pes;
             r_fail_links = fail_links;
             r_length = e.length;
             r_strategy = info.strategy;
             r_migration_cost = info.migration_cost;
             r_moved = info.moved;
             r_surviving = info.surviving;
             r_schedule_json = e.schedule_json;
           })
  | Replan_of _, None -> None

let create ?(capacity = 256) ?default_deadline_ms ?state_dir () =
  let suite = Hashtbl.create 32 in
  List.iter
    (fun (name, g) ->
      if Result.is_ok (Csdfg.validate g) then Hashtbl.replace suite name g)
    (Workloads.Suite.all ());
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
                let key, entry = entry_of_record r in
                Lru.add cache key entry)
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
(* Schedule requests                                                    *)
(* ------------------------------------------------------------------ *)

type prepared = {
  key : string;
  graph : Csdfg.t;  (* resolved, before slow-down *)
  p_topo : Topology.t;
  p_spec : P.graph_spec;  (* as requested, for journalling *)
  p_arch : string;
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
        | None ->
            Error
              (err "bad_request" "unknown workload %S (see `ccsched list`)"
                 name))
    | P.Inline text -> (
        let* g =
          match Dataflow.Io.of_string text with
          | Ok g -> Ok g
          | Error e ->
              Error (err "bad_graph" "%s" (Dataflow.Io.error_to_string e))
        in
        match Csdfg.validate g with
        | Ok () -> Ok g
        | Error (v :: _) ->
            Error
              (err "bad_graph" "illegal CSDFG: %s"
                 (Fmt.str "%a" (Csdfg.pp_violation g) v))
        | Error [] -> Ok g)
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
      p_topo = topo;
      p_spec = graph;
      p_arch = arch;
      knobs;
      deadline = effective_deadline t knobs.P.deadline_ms;
    }

(* The exact one-shot pipeline: slow-down transform, then compaction
   under the requested transport.  Deterministic, and shared state free
   so batches may run it on any domain.  A timed-out search is an
   error, never a cache entry: partial results must not be served as if
   they were the content-addressed answer. *)
let compute prep =
  let k = prep.knobs in
  let g, comm = Cachekey.instance k prep.graph prep.p_topo in
  match
    Compaction.run ~mode:k.P.mode ?speeds:k.P.speeds ?passes:k.P.passes
      ?time_budget:prep.deadline g comm
  with
  | r when r.Compaction.timed_out ->
      let best_length = Schedule.length r.Compaction.best in
      Error
        (P.err ~best_length "deadline_exceeded"
           (Printf.sprintf
              "schedule search exceeded its deadline after %d passes \
               (best-so-far length %d)"
              (List.length r.Compaction.trace)
              best_length))
  | r ->
      let best = r.Compaction.best in
      Ok
        {
          live = Some (best, prep.p_topo);
          source =
            Sched_of { graph = prep.p_spec; arch = prep.p_arch; knobs = k };
          schedule_json = Cyclo.Export.to_json best;
          length = Schedule.length best;
          passes = List.length r.Compaction.trace;
          replan = None;
        }
  | exception (Invalid_argument msg | Failure msg) ->
      Error (err "internal" "scheduling failed: %s" msg)

let journal_records t =
  (* oldest-first so replay reproduces the recency order; refreshing
     each key in that order while iterating leaves the order intact *)
  List.rev (Lru.keys t.cache)
  |> List.filter_map (fun key ->
         Option.bind (Lru.find t.cache key) (record_of_entry key))

let commit t key entry =
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
  | Some sf -> (
      Option.iter (Statefile.append sf) (record_of_entry key entry);
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
      end)

let scheduled_reply ~id ~key ~cached entry =
  P.Scheduled
    {
      id;
      session = key;
      cached;
      length = entry.length;
      passes = entry.passes;
      schedule_json = entry.schedule_json;
    }

(* ------------------------------------------------------------------ *)
(* Replan requests                                                      *)
(* ------------------------------------------------------------------ *)

let replanned_reply ~id ~key ~cached entry info =
  P.Replanned
    {
      id;
      session = key;
      cached;
      strategy = info.strategy;
      migration_cost = info.migration_cost;
      moved = info.moved;
      length = entry.length;
      surviving = info.surviving;
      schedule_json = entry.schedule_json;
    }

(* Rebuild a restored entry's in-memory schedule/topology from its
   recorded derivation.  The scheduler is deterministic, so the rebuilt
   schedule is the one whose export bytes the entry already serves; the
   rebuild is cached on the entry, so a replan chain is re-derived at
   most once per restart.  [deadline_ns] caps the whole recursive
   rebuild — it is the requesting replan's own budget. *)
let rec force t ~deadline_ns entry =
  match entry.live with
  | Some lt -> Ok lt
  | None ->
      let result =
        if expired deadline_ns then
          Error
            (err "deadline_exceeded"
               "deadline expired while rebuilding the session's schedule")
        else
          match entry.source with
          | Sched_of { graph; arch; knobs } -> (
              match resolve t ~graph ~arch knobs with
              | Error e -> Error e
              | Ok prep -> (
                  match
                    compute { prep with deadline = remaining_s deadline_ns }
                  with
                  | Ok { live = Some lt; _ } -> Ok lt
                  | Ok { live = None; _ } ->
                      Error (err "internal" "rebuild lost its schedule")
                  | Error e -> Error e))
          | Replan_of { parent; fail_pes; fail_links } -> (
              match Lru.find t.cache parent with
              | None ->
                  Error
                    (err "unknown_session"
                       "parent session %s of this replan chain was evicted \
                        — re-send the original schedule request"
                       parent)
              | Some p -> (
                  match force t ~deadline_ns p with
                  | Error e -> Error e
                  | Ok (psched, ptopo) -> (
                      let failed_pes = List.map (fun p -> p - 1) fail_pes in
                      let failed_links =
                        List.map (fun (a, b) -> (a - 1, b - 1)) fail_links
                      in
                      match
                        Cyclo.Degrade.replan
                          ?time_budget:(remaining_s deadline_ns) psched ptopo
                          ~failed_pes ~failed_links
                      with
                      | Ok plan ->
                          Ok
                            ( plan.Cyclo.Degrade.schedule,
                              plan.Cyclo.Degrade.topology )
                      | Error msg when msg = Cyclo.Degrade.deadline_error ->
                          Error (err "deadline_exceeded" "%s" msg)
                      | Error msg ->
                          Error (err "internal" "rebuild failed: %s" msg)
                      | exception (Invalid_argument msg | Failure msg) ->
                          Error (err "internal" "rebuild failed: %s" msg))))
      in
      (match result with
      | Ok lt -> entry.live <- Some lt
      | Error _ -> ());
      result

let replan_entry t ~deadline_ns ~session ~fail_pes ~fail_links =
  let ( let* ) = Result.bind in
  let* parent =
    match Lru.find t.cache session with
    | Some e -> Ok e
    | None ->
        Error
          (err "unknown_session"
             "no cached schedule for session %s (never created, or evicted \
              — re-send the schedule request)"
             session)
  in
  let* parent_schedule, parent_topo = force t ~deadline_ns parent in
  let np = Topology.n_processors parent_topo in
  let* () =
    match
      List.find_opt (fun p -> p < 1 || p > np) fail_pes
    with
    | Some p ->
        Error
          (err "bad_request" "fail_pes entry %d out of range 1..%d" p np)
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
  let failed_pes = List.map (fun p -> p - 1) fail_pes in
  let failed_links = List.map (fun (a, b) -> (a - 1, b - 1)) fail_links in
  if expired deadline_ns then
    Error (err "deadline_exceeded" "deadline expired before replanning began")
  else
    match
      Cyclo.Degrade.replan
        ?time_budget:(remaining_s deadline_ns) parent_schedule parent_topo
        ~failed_pes ~failed_links
    with
    | Ok plan ->
        let sched = plan.Cyclo.Degrade.schedule in
        let info =
          {
            strategy =
              (match plan.Cyclo.Degrade.strategy with
              | Cyclo.Degrade.Patched -> "patched"
              | Cyclo.Degrade.Rebuilt -> "rebuilt");
            migration_cost = plan.Cyclo.Degrade.migration_cost;
            moved = List.length plan.Cyclo.Degrade.moved;
            surviving = Array.length plan.Cyclo.Degrade.surviving;
          }
        in
        Ok
          {
            live = Some (sched, plan.Cyclo.Degrade.topology);
            source = Replan_of { parent = session; fail_pes; fail_links };
            schedule_json = Cyclo.Export.to_json sched;
            length = Schedule.length sched;
            passes = 0;
            replan = Some info;
          }
    | Error msg when msg = Cyclo.Degrade.deadline_error ->
        Error (err "deadline_exceeded" "%s" msg)
    | Error msg -> Error (err "replan_failed" "%s" msg)
    | exception (Invalid_argument msg | Failure msg) ->
        Error (err "replan_failed" "%s" msg)

(* ------------------------------------------------------------------ *)
(* Dispatch                                                             *)
(* ------------------------------------------------------------------ *)

(* [precomputed] carries batch-parallel compute results keyed by cache
   key; each is consumed (committed + counted as the miss) by the first
   request that needs it, so later identical requests in the same batch
   hit the cache exactly as they would sequentially.

   [spans] opts into the "trace":true span breakdown: each major stage
   is timed and pushed onto the ref (reverse order; handle_line_with
   reverses and appends the export span).  With [spans = None] no clock
   is read here, so untraced requests pay nothing. *)
let handle_with ?precomputed ?spans t ~id request =
  t.requests <- t.requests + 1;
  Obs.Counters.incr c_requests;
  let tick name f =
    match spans with
    | None -> f ()
    | Some r ->
        let t0 = Obs.Trace.now_ns () in
        let x = f () in
        r := (name, Obs.Trace.now_ns () - t0) :: !r;
        x
  in
  match request with
  | P.Stats -> P.Stats_reply { id; stats = stats t }
  | P.Metrics ->
      P.Metrics_reply
        { id; body = tick "render" (fun () -> Obs.Exposition.render ()) }
  | P.Health -> P.Health_reply { id; health = health t }
  | P.Shutdown -> P.Shutdown_ack { id }
  | P.Schedule { graph; arch; knobs } -> (
      match tick "resolve" (fun () -> resolve t ~graph ~arch knobs) with
      | Error e -> P.Error_reply { id = Some id; err = e }
      | Ok prep -> (
          match
            tick "cache_lookup" (fun () -> Lru.find t.cache prep.key)
          with
          | Some entry ->
              record_hit t;
              scheduled_reply ~id ~key:prep.key ~cached:true entry
          | None -> (
              let computed =
                match
                  Option.bind precomputed (fun tbl ->
                      let r = Hashtbl.find_opt tbl prep.key in
                      Hashtbl.remove tbl prep.key;
                      r)
                with
                | Some r -> r
                | None -> tick "compaction" (fun () -> compute prep)
              in
              record_miss t;
              match computed with
              | Ok entry ->
                  commit t prep.key entry;
                  scheduled_reply ~id ~key:prep.key ~cached:false entry
              | Error e -> P.Error_reply { id = Some id; err = e })))
  | P.Replan { session; fail_pes; fail_links; deadline_ms } -> (
      let key = Cachekey.replan_digest ~parent:session ~failed_pes:fail_pes
          ~failed_links:fail_links
      in
      match tick "cache_lookup" (fun () -> Lru.find t.cache key) with
      | Some ({ replan = Some info; _ } as entry) ->
          record_hit t;
          t.last_replan <- info.strategy;
          replanned_reply ~id ~key ~cached:true entry info
      | Some { replan = None; _ } | None -> (
          let deadline_ns =
            deadline_ns_of (effective_deadline t deadline_ms)
          in
          match
            tick "replan" (fun () ->
                replan_entry t ~deadline_ns ~session ~fail_pes ~fail_links)
          with
          | Ok ({ replan = Some info; _ } as entry) ->
              record_miss t;
              commit t key entry;
              t.last_replan <- info.strategy;
              replanned_reply ~id ~key ~cached:false entry info
          | Ok { replan = None; _ } ->
              P.Error_reply
                { id = Some id; err = err "internal" "replan lost its plan" }
          | Error e ->
              t.last_replan <- "failed";
              P.Error_reply { id = Some id; err = e }))

let handle t ~id request = handle_with t ~id request

let continue_of_request = function P.Shutdown -> `Shutdown | _ -> `Continue

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

let handle_line_with ?precomputed t line =
  let t0 = Obs.Trace.now_ns () in
  match P.parse_request line with
  | Error (id, e) ->
      t.requests <- t.requests + 1;
      Obs.Counters.incr c_requests;
      let reply = P.Error_reply { id; err = e } in
      let out = P.reply_to_json reply in
      log_reply ~t0 ?request_id:id reply;
      (out, `Continue)
  | Ok (id, request, false) ->
      let reply = handle_with ?precomputed t ~id request in
      let out = P.reply_to_json reply in
      log_reply ~t0 ~request_id:id reply;
      (out, continue_of_request request)
  | Ok (id, request, true) ->
      (* Traced: the reply bytes are the untraced serialisation with the
         span list spliced in front of the closing brace — byte-identical
         modulo the trailing "trace" field (pinned in test_service.ml). *)
      let spans = ref [ ("parse", Obs.Trace.now_ns () - t0) ] in
      let reply = handle_with ?precomputed ~spans t ~id request in
      let e0 = Obs.Trace.now_ns () in
      let base = P.reply_to_json reply in
      let export_ns = Obs.Trace.now_ns () - e0 in
      let out = P.with_trace base (List.rev (("export", export_ns) :: !spans)) in
      log_reply ~t0 ~request_id:id reply;
      (out, continue_of_request request)

let handle_line t line = handle_line_with t line

let handle_batch ?domains t lines =
  (* Phase 1: resolve every line and collect the distinct schedule keys
     that miss the cache right now; compute those in parallel.  Replans
     stay sequential in phase 2 — they may chain on schedule sessions
     committed earlier in the same batch, and their patch/rebuild cost
     is a fraction of a compaction search. *)
  let jobs = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun line ->
      match P.parse_request line with
      (* traced lines are excluded so their compaction span is measured
         for real in phase 2, not reduced to a table lookup *)
      | Ok (_, P.Schedule { graph; arch; knobs }, false) -> (
          match resolve t ~graph ~arch knobs with
          | Ok prep
            when (not (Lru.mem t.cache prep.key))
                 && not (Hashtbl.mem jobs prep.key) ->
              Hashtbl.add jobs prep.key prep;
              order := prep.key :: !order
          | Ok _ | Error _ -> ())
      | Ok _ | Error _ -> ())
    lines;
  let keys = List.rev !order in
  let precomputed = Hashtbl.create (List.length keys) in
  List.combine keys
    (Parutil.Parallel.map ?domains
       (fun key -> compute (Hashtbl.find jobs key))
       keys)
  |> List.iter (fun (key, result) -> Hashtbl.add precomputed key result);
  (* Phase 2: sequential dispatch in request order — byte-identical to
     handle_line on each line in turn. *)
  List.map (fun line -> handle_line_with ~precomputed t line) lines
