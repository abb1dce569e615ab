(** Leveled, structured NDJSON logging — schema [ccsched-log/1].

    One call to {!emit} becomes one JSON object on one line, carrying
    the schema tag, a monotonic timestamp ([ts_ns], same clock as
    {!Trace.now_ns}), the level, a short event name, the optional
    request correlation fields ([request_id], [session],
    [duration_ns]) and free-form key/value pairs.  The service engine
    and server log one line per request/reply, eviction, replan and
    fault through this module (see [docs/observability.md], "Live
    telemetry", for the schema reference).

    Discipline matches {!Trace} and {!Counters}: while disabled, every
    probe costs exactly one atomic flag load — pinned by the
    logging-on/off bench cell.  While enabled, lines are rendered
    outside the sink lock and written under it, so concurrent domains
    interleave whole lines, never bytes. *)

val schema : string
(** ["ccsched-log/1"], the value of every line's ["log"] field. *)

type level = Debug | Info | Warn | Error

val level_to_string : level -> string
val severity : level -> int
(** [Debug] 0 .. [Error] 3; {!emit} drops lines below the enabled
    threshold. *)

type value = I of int | S of string | B of bool | F of float
(** Key/value payloads.  Keys should avoid the reserved field names
    ([log], [ts_ns], [level], [event], [request_id], [session],
    [duration_ns]) — the renderer does not deduplicate. *)

val enabled : unit -> bool

val would_log : level -> bool
(** [enabled () && level >= threshold] — guard for callers that
    allocate to build [kv]. *)

val enable : ?level:level -> (string -> unit) -> unit
(** [enable ~level write] starts logging: each line at or above
    [level] (default [Info]) is passed to [write] without a trailing
    newline, under an internal lock. *)

val disable : unit -> unit
(** Stop logging (the sink is kept; {!enable} replaces it). *)

val emit :
  ?request_id:int ->
  ?session:string ->
  ?duration_ns:int ->
  ?kv:(string * value) list ->
  level ->
  string ->
  unit
(** [emit level event] logs one line.  No-op below the threshold or
    while disabled (one atomic load). *)

val render :
  ts_ns:int ->
  level:level ->
  event:string ->
  ?request_id:int ->
  ?session:string ->
  ?duration_ns:int ->
  ?kv:(string * value) list ->
  unit ->
  string
(** The pure line renderer behind {!emit} — deterministic input for the
    schema round-trip test. *)
