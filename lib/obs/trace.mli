(** Span-based structured tracing for the scheduling pipeline.

    A {e span} is one instrumented region of execution — a whole
    scheduler run, one compaction pass, one simulator execution —
    opened and closed by {!with_span}.  It records where the wall-clock
    went (the monotonic clock, read at open and close) and where the
    memory went (deltas over the same window: exact minor words from
    [Gc.minor_words], then from [Gc.quick_stat] words promoted and
    allocated in the major heap, collections run, top-heap growth).  Spans
    nest: a span opened while another is running records the enclosing
    depth, so exporters can reconstruct the call tree without walking
    the runtime stack.

    Tracing is {b off by default} and every probe is a single atomic
    flag read when disabled, so instrumented code paths produce
    byte-identical results and indistinguishable timings until a caller
    opts in with {!enable} (the [ccsched] [--profile] and [--metrics]
    flags through {!Profile.enable}, the bench harness, or a test).

    {2 Per-domain streams}

    Spans are recorded through {!Collector}: each OCaml domain appends
    to its own stream (no lock on the hot path), and {!spans} merges
    the streams deterministically, ordered by (domain tag, per-domain
    begin order), after the parallel section has joined.  Collect
    results only once the traced work has finished; spans still open
    or recorded by still-running domains are not merged.  OCaml 5 keeps
    allocation counters per domain, so a span's allocation is its own
    domain's, and the deltas of nested spans sum to at most their
    parent's. *)

type span = {
  name : string;  (** probe name, e.g. ["compaction.pass"] *)
  args : (string * string) list;  (** static key/value annotations *)
  start_ns : int;  (** wall-clock start, ns since {!enable} *)
  dur_ns : int;  (** wall-clock duration in ns, [>= 0] *)
  minor_words : int;  (** words allocated in the minor heap *)
  promoted_words : int;  (** words promoted minor → major *)
  major_words : int;  (** words allocated in the major heap, incl. promotions *)
  minor_collections : int;  (** minor GCs completed inside the span *)
  major_collections : int;  (** major GC cycles completed inside the span *)
  top_heap_words : int;  (** growth of the top-heap high-water mark, [>= 0] *)
  depth : int;  (** nesting depth within its domain, [0] = root *)
  domain : int;  (** dense per-collection domain tag, [0] = first seen *)
  seq : int;  (** per-domain begin-order sequence number *)
}

val now_ns : unit -> int
(** Nanoseconds on the process-wide monotonic clock, relative to the
    origin set by the last {!enable} (boot-relative before the first).
    Backed by [CLOCK_MONOTONIC], never by the wall clock: within one
    collection successive reads are non-decreasing even across NTP slews
    or manual clock adjustments, so span durations cannot go negative. *)

val enabled : unit -> bool
(** Whether spans are currently being recorded. *)

val enable : unit -> unit
(** Start a fresh collection: previously recorded spans are dropped, the
    clock origin is reset, and recording turns on. *)

val disable : unit -> unit
(** Stop recording.  Already-collected spans remain readable. *)

val reset : unit -> unit
(** Drop every recorded span without changing the enabled flag. *)

val with_span : ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f ()] inside a span called [name].  The
    span is closed (and recorded) even when [f] raises.  When tracing is
    disabled this is exactly [f ()] after one atomic load. *)

val spans : unit -> span list
(** Every closed span of the current collection, merged across domains
    in (domain, seq) order — a deterministic function of the recorded
    data, independent of wall-clock ties. *)

val aggregate : unit -> (string * int * int) list
(** Per-name wall-clock rollup of {!spans}: [(name, count, total_ns)],
    sorted by name.  Nested spans are {e not} subtracted from their
    parents; each name's total is the sum of its own durations.
    {!Resource.aggregate} rolls up the allocation the same way. *)
