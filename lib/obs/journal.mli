(** Decision provenance for the scheduling pipeline.

    Where {!Trace} answers {e where did the wall-clock go} and
    {!Counters} {e how much work happened}, the journal answers {e why
    the scheduler chose what it chose}: which candidate (control step,
    processor) slots were considered for a node and why each was
    rejected, the priority-function components at selection time, what
    constraint bound each compaction pass's schedule length, and which
    local-search moves were tried.

    The journal is a {!Collector}, like {!Trace}'s spans: {b off by
    default}, every probe one atomic flag read when disabled — so
    instrumented schedulers produce byte-identical results until a
    caller opts in — and per-domain streams merged deterministically in
    (domain, per-domain sequence) order after the traced work has
    joined.  It keeps its own switch because recording changes one
    thing about the work done: with the journal on, the start-up sweep
    probes every ready node at every step (each rejection is an event)
    instead of skipping steps where every processor is busy.  The
    schedule it builds is the same.

    Events name nodes and processors by their dense integer ids; the
    pretty-printer takes an optional labeller so callers with a graph in
    hand can render node names. *)

type reject_reason =
  | Comm_bound of { pred : int; hops : int; volume : int }
      (** Data from zero-delay predecessor [pred] is the last to arrive
          at the candidate processor: it travels [hops] links carrying
          [volume] units, so under
          store-and-forward it occupies the wire for [hops * volume]
          control steps after [pred] finishes.  Recorded both when the
          data had not yet arrived at the candidate step and when the
          slot lost to a processor with a strictly earlier arrival
          bound. *)
  | Occupied of { holder : int }
      (** The processor was already running [holder], placed in an
          earlier control step. *)
  | Mobility of { winner : int }
      (** The slot was free when the step began but [winner] — sorted
          ahead by the priority function (data volume vs. mobility,
          Definition 3.6) — claimed it in this very step: a pure
          priority/tie-break loss. *)

type binding =
  | Rows of { last : int }
      (** The table length is bound by the last occupied row. *)
  | Delayed_edge of { src : int; dst : int; delay : int; psl : int }
      (** The table length is bound by the projected schedule length
          (Lemma 4.3) of the delayed edge [src -> dst]. *)

type event =
  | Candidate of { node : int; cs : int; pe : int; reason : reject_reason }
      (** A (control step, processor) slot considered for [node] by the
          start-up scheduler and rejected. *)
  | Placed of {
      node : int;
      cs : int;
      pe : int;
      pf : int;  (** priority-function value when the node was selected *)
      mobility : int;  (** ALAP slack [MB] (Definition 3.4) *)
      static_level : int;  (** longest zero-delay path from the node *)
      arrival : int;  (** last control step occupied by inbound data *)
    }  (** The start-up scheduler committed [node] to [cs] on [pe]. *)
  | Rotated of { nodes : int list }
      (** One rotation retimed this first-row set (Definition 4.1). *)
  | Pass of { pass : int; length : int; outcome : string; binding : binding }
      (** One compaction pass finished: resulting table length, outcome
          classification, and the constraint binding that length. *)
  | Refine_move of { node : int; cs : int; pe : int; accepted : bool }
      (** Local search proposed moving [node] to [cs] on [pe]; rejected
          moves are ones whose required table length grew. *)

(** {2 Collection lifecycle}

    The {!Collector} API over journal events: [enable] starts a fresh
    collection, [record] is a single atomic load while disabled,
    [events] merges the per-domain streams deterministically. *)

val enabled : unit -> bool
(** Whether events are currently being recorded.  Callers building
    non-trivial event payloads should guard on this so the disabled path
    stays allocation-free. *)

val enable : unit -> unit
(** Drop any previous collection and start recording. *)

val disable : unit -> unit
(** Stop recording.  Already-collected events remain readable. *)

val reset : unit -> unit
(** Drop every recorded event without changing the enabled flag. *)

val record : event -> unit
(** Append an event to the calling domain's stream.  A no-op (one atomic
    load) while the journal is disabled. *)

val events : unit -> event list
(** Every event of the current collection, merged across domains in
    (domain, per-domain begin order) — a deterministic function of the
    recorded data. *)

val pp_reason :
  ?label:(int -> string) -> Format.formatter -> reject_reason -> unit

val pp_binding : ?label:(int -> string) -> Format.formatter -> binding -> unit

val pp_event : ?label:(int -> string) -> Format.formatter -> event -> unit
(** One-line rendering; [label] maps node ids to names (default
    ["n<id>"]). *)

val to_jsonl : event list -> string
(** The events as NDJSON: a [{"schema":"ccsched-journal/1","events":N}]
    header line, then one object per event in the given order
    ([{"ev":"candidate",...}], [{"ev":"placed",...}], ...), node and
    processor ids as dense integers exactly as recorded.  Rendered into
    a single buffer — one flush per line, not one write per field. *)
