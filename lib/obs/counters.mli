(** Process-wide counters and gauges for the scheduling pipeline.

    A {e counter} is a named monotonically increasing tally
    ([compaction.passes], [simulator.messages], ...); a {e gauge} is a
    named last-write-wins value ([compaction.best_length]).  Both live
    in one global registry so any layer — library, CLI, bench, test —
    can read a consistent snapshot with {!dump} after a run.

    Handles are created once at module-initialisation time with
    {!counter}; updating through a handle is lock-free (one atomic
    fetch-and-add) and, like {!Trace}, a single atomic flag read when
    the registry is disabled, so instrumented hot paths cost nothing
    measurable until a caller opts in with {!enable}.

    The switch here is the {e metrics} switch: it turns on the
    {!Histogram} registry too, and {!enable}/{!reset} zero both. *)

type t
(** A registered counter (or gauge) handle. *)

type kind = Counter | Gauge
(** How a handle is meant to be driven — a [Counter] accumulates with
    {!incr}, a [Gauge] is replaced with {!set}.  The kind is declared at
    registration time so exporters ({!pp_summary}, [--metrics]) can
    classify values without guessing from the name. *)

val counter : string -> t
(** [counter name] registers [name] as a {!Counter} and returns its
    handle; calling it again with the same name returns the same handle
    (the original kind wins).  Safe to call from any domain. *)

val gauge : string -> t
(** Like {!counter} but registers the name as a {!Gauge}
    (last-write-wins, driven with {!set}). *)

val cell : unit -> int Atomic.t
(** A cell behind the metrics switch that no snapshot lists: {!reset}
    and {!enable} zero it with the named counters.  {!Histogram} keeps
    its buckets in such cells; update one only while {!enabled}. *)

val name : t -> string
val kind : t -> kind

val incr : ?by:int -> t -> unit
(** Add [by] (default 1).  No-op while the registry is disabled. *)

val set : t -> int -> unit
(** Gauge write: replace the value.  No-op while disabled. *)

val value : t -> int
(** Current value (0 until first update or after {!reset}). *)

val enabled : unit -> bool

val enable : unit -> unit
(** Zero every registered counter and histogram and start accepting
    updates to both. *)

val disable : unit -> unit
(** Stop accepting updates; values remain readable. *)

val reset : unit -> unit
(** Zero every registered counter and histogram without changing the
    enabled flag. *)

val snapshot : unit -> (string * kind * int) list
(** One immutable, consistent view of the whole registry:
    [(name, kind, value)] sorted by name, every cell read atomically
    under the registration lock.  This is the read path shared by the
    Prometheus exposition ({!Exposition}), [ccsched top] deltas and the
    tests — none of them re-parse {!pp_summary} text. *)

val dump : unit -> (string * int) list
(** {!snapshot} without the kinds. *)

val pp_summary : Format.formatter -> unit -> unit
(** Human-readable registry listing, one [name value] line per counter
    in {!dump} order; gauges are marked [(gauge)]. *)
