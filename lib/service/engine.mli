(** The scheduling-service request engine.

    One engine holds the content-addressed schedule cache and answers
    {!Protocol} requests; the socket {!Server} and the tests drive it
    directly.  All cache access happens on the caller's thread — the
    engine itself is not thread-safe.  What {e is} parallel is the
    compaction work: {!handle_batch} fans the cache-missing schedule
    computations of a whole batch over [Parutil] domains, then commits
    and replies in request order, so a batch's replies, cache state and
    statistics are byte-identical to processing the same lines
    sequentially with {!handle_line} (pinned by
    [test/test_service.ml]).

    Statistics are kept unconditionally (the [stats] RPC must work
    without observability enabled) and mirrored into [Obs.Counters]
    ([service.cache_hits], [service.cache_misses], [service.requests],
    [service.cache_evictions]) when that registry is on.

    Live telemetry rides the same paths: [metrics] requests render the
    registries as Prometheus text exposition, [health] reports uptime
    and load, a request carrying ["trace":true] gets a span breakdown
    (parse/resolve/cache_lookup/compaction/replan/render → export)
    spliced onto its otherwise byte-identical reply, and when
    [Obs.Log] is enabled every request, reply, eviction and replan
    emits one [ccsched-log/1] line. *)

type t

val create :
  ?capacity:int -> ?default_deadline_ms:int -> ?state_dir:string -> unit -> t
(** A fresh engine.  [capacity] (default 256) bounds the number of
    cached schedules; beyond it the least-recently-used entry —
    schedule or replan alike — is evicted.

    [default_deadline_ms] is the computation budget applied to every
    schedule/replan request that does not carry its own ["deadline_ms"];
    expiry yields a typed [deadline_exceeded] error (with the
    best-so-far length when the search got that far) and the partial
    result is never cached.

    [state_dir] enables the crash-safe warm-restart journal
    ({!Statefile}): committed cache entries are appended to
    [state_dir/state.ccsj] and replayed here on creation — with
    torn-tail truncation, logged as a [serve.restore] line — so a
    restarted engine serves previously-cached sessions byte-identically
    (as [cached:true] hits) and replans against pre-crash session ids
    still work (the deterministic scheduler lazily re-derives the
    in-memory schedule the first time a chain needs it).
    @raise Invalid_argument when [capacity < 1].
    @raise Failure when [state_dir] cannot be created or opened. *)

val close : t -> unit
(** Release the warm-restart journal's file handle (a no-op without
    [state_dir]).  The engine must not be used afterwards. *)

val handle_line : t -> string -> string * [ `Continue | `Shutdown ]
(** Answer one request line: parse it (and resolve a schedule request)
    once, then look up, compute and commit, and serialise the reply (no
    trailing newline).  Never raises: every failure mode becomes an
    error reply.  [`Shutdown] flags an acknowledged shutdown request;
    acting on it is the caller's job.  This is the sequential reference
    {!handle_batch} must match. *)

val handle_batch :
  ?domains:int -> t -> string list -> (string * [ `Continue | `Shutdown ]) list
(** {!handle_line} over a batch: every line is parsed and resolved
    once, the distinct cache-missing untraced schedule computations run
    in parallel over [domains] (default: all cores), then the lines are
    answered in request order.  Replies are byte-identical to the
    sequential ones. *)

val stats : t -> Protocol.stats

val health : t -> Protocol.health
(** The [health] reply body: build id, uptime, request count, cache
    hit-rate and occupancy, plus the load figures from {!set_load} and
    the strategy of the most recent replan (["none"] before any,
    ["failed"] after a failed one). *)

val set_load : t -> queue_depth:int -> active_clients:int -> unit
(** Record the server's current load for {!health}; the socket server
    calls this before draining each batch. *)

val cache_keys : t -> string list
(** Cached session keys, most-recently-used first (tests, debugging). *)
