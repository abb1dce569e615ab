(** The [ccsched serve] daemon: a Unix-domain-socket NDJSON server over
    one {!Engine}.

    Single event loop ([Unix.select]); each iteration drains the lines
    that arrived since the last one across all connected clients and
    answers them as one {!Engine.handle_batch} — so concurrent clients
    share the cache and the cache-missing compactions of a busy moment
    run in parallel, while replies to each client stay in its request
    order.  A [shutdown] request is acknowledged, then the loop closes
    every connection, unlinks the socket and returns.

    Production hardening — the loop survives overload, slow readers and
    crashes rather than degrading silently:

    - {b Admission control}: at most [max_queue] request lines are
      admitted per iteration; the excess is shed newest-first with a
      typed [overloaded] error reply whose [retry_after_ms] hint is
      derived from an EWMA of recent per-request service time, so
      clients back off proportionally to actual load.
    - {b Slow-client disconnect}: a peer that has pending reply bytes
      but has not accepted a single byte for [write_timeout] seconds is
      dropped, whether or not it is still sending, so one stalled
      reader cannot pin buffers or delay shutdown.
    - {b Graceful signals}: with [handle_signals], SIGTERM/SIGINT set a
      flag checked each iteration; the loop then drains and exits as if
      a [shutdown] request had arrived.  Off by default because signal
      handlers are process-global (tests run servers inside Domains).
    - {b Warm restart}: [state_dir] hands the engine a crash-safe
      journal ({!Statefile}); a restarted daemon answers previously
      cached sessions byte-identically (as [cached:true] hits).
    - {b Bounded drain}: the shutdown drain of each client is capped by
      [drain_timeout] wall-clock seconds.
    - {b Bounded lines}: a request line over {!max_line} bytes, finished
      or not, gets one typed [too_large] reply (["id":null]) after the
      replies to the client's earlier lines; nothing more is read from
      the connection, which closes once its replies are out;
      each read is scanned for newlines once, so intake is linear in
      the bytes received.

    Instrumented through the observability layer when enabled:
    [service.queue_depth] (gauge: lines taken per loop iteration),
    [service.request_latency] (histogram, nanoseconds per request from
    batch receipt to reply write-out), [service.queue_wait] (histogram,
    nanoseconds between intake and dispatch), [service.shed_requests],
    [service.slow_clients], [service.rejected_clients] (accepts refused
    at [max_clients]) and [service.discarded_partial] (clients that
    hung up leaving an unterminated request tail, or were refused a
    line over {!max_line}), plus the {!Engine}
    counters.  With [Obs.Log] enabled the lifecycle is logged too:
    [serve.start]/[serve.stop], [serve.shed], [serve.signal],
    [client.connect]/[client.disconnect], [client.rejected],
    [client.slow_disconnect], [client.discarded_partial], and the
    engine's [serve.restore]/[serve.deadline_exceeded]. *)

type config = {
  socket_path : string;
  capacity : int;  (** schedule-cache bound, entries *)
  domains : int option;  (** compaction parallelism; [None] = all cores *)
  max_clients : int;  (** refuse accepts beyond this many connections *)
  max_queue : int;
      (** request lines admitted per loop iteration; the excess is shed
          with typed [overloaded] replies *)
  default_deadline_ms : int option;
      (** deadline applied to requests that carry no ["deadline_ms"] *)
  state_dir : string option;
      (** warm-restart journal directory; [None] = no persistence *)
  write_timeout : float;
      (** seconds a peer may accept no bytes while replies are pending
          before it is disconnected *)
  drain_timeout : float;  (** shutdown drain budget per client, seconds *)
  handle_signals : bool;
      (** install SIGTERM/SIGINT handlers that trigger a graceful
          drain — process-global, so off by default *)
}

val max_line : int
(** 16 MiB: the longest request line the daemon reads. *)

val default_config : socket_path:string -> config
(** capacity 256, domains [None], max_clients 64, max_queue 1024,
    default_deadline_ms [None], state_dir [None], write_timeout 10s,
    drain_timeout 5s, handle_signals [false]. *)

val run : ?on_ready:(unit -> unit) -> config -> (unit, string) result
(** Bind, listen and serve until a [shutdown] request (or a handled
    signal).  Replaces a stale socket file only if nothing is listening
    on it; [Error] when the path is live, cannot be bound, or
    [state_dir] cannot be created/opened.  [on_ready] fires once the
    socket is accepting (used by tests and the CI smoke to avoid
    sleeps). *)
