(** The scheduling request spec and its content-addressed cache key.

    A handful of knobs steer the search: remap mode, pass budget,
    per-processor speeds, slow-down factor and transport discipline.
    This module defines them once — the record, its defaults, its one
    validator and its canonical rendering — for every surface that
    takes them: the [ccsched] flags, the service wire protocol and
    journal (which share one JSON codec in [Service.Protocol]) and the
    cache key.

    The scheduling service ([lib/service]) answers a repeated request
    from its cache instead of re-running the compaction search.  That
    is only sound if the key covers {e every} input the reply bytes
    depend on; the canonical form covers:

    - the graph: name, labels, computation times and the sorted edge
      list with delays and volumes (the exported schedule prints the
      name and labels, so they are part of the contract);
    - the machine: topology name, processor count and the sorted
      weighted link list;
    - every knob except [deadline_ms].

    Two requests with equal canonical forms produce byte-identical
    schedules (the scheduler is deterministic), so a cache hit is
    indistinguishable from a cold run — the coherence argument in
    DESIGN.md, pinned by [test/test_service.ml]'s golden test.

    Keys are MD5 digests of the canonical text.  MD5 is fine here: the
    cache is a performance layer, not an integrity boundary — a forged
    collision only ever poisons the forger's own request. *)

type transport =
  | Store_and_forward  (** the paper's model: [hops * volume] *)
  | Wormhole  (** pipelined cut-through: [hops + volume - 1] *)

type knobs = {
  mode : Remap.mode;  (** default [With_relaxation] *)
  passes : int option;  (** default: scales with the graph *)
  speeds : int array option;  (** default: homogeneous *)
  slowdown : int;  (** delay multiplier, default 1 *)
  transport : transport;  (** default [Store_and_forward] *)
  deadline_ms : int option;
      (** computation budget in milliseconds; default none.  Not part of
          the cache key — a deadline changes when an answer arrives,
          never which answer is cached. *)
}

val default_knobs : knobs

val modes : (string * Remap.mode) list
(** Each mode under its one spelling, ["relax"] or ["strict"], on the
    wire, on the command line and in the key. *)

val transports : (string * transport) list
(** Likewise ["store-and-forward"] and ["wormhole"]. *)

val mode_name : Remap.mode -> string
val transport_name : transport -> string

val validate : ?topo:Topology.t -> knobs -> (unit, string) result
(** Range checks: [passes], [slowdown] and [deadline_ms] at least 1,
    [speeds] non-empty and positive and, given [topo], one entry per
    processor.  The messages are the wire protocol's [bad_request]
    texts, each naming the offending field. *)

val slowed : knobs -> Dataflow.Csdfg.t -> Dataflow.Csdfg.t
(** The graph the search runs on: every edge delay times [slowdown]
    (the graph itself when [slowdown = 1]). *)

val instance :
  knobs -> Dataflow.Csdfg.t -> Topology.t -> Dataflow.Csdfg.t * Comm.t
(** {!slowed} plus the communication model of [transport] on the
    machine: {!Comm.of_topology} or {!Comm.wormhole}. *)

val canonical : knobs -> Dataflow.Csdfg.t -> Topology.t -> string
(** The full canonical text of a schedule request.  Default [passes]
    and [speeds] render distinctly from any explicit value. *)

val key : knobs -> Dataflow.Csdfg.t -> Topology.t -> string
(** MD5 of {!canonical}, as 32 lowercase hex characters — the cache key
    and the service's session id. *)

val digest :
  ?speeds:int array ->
  ?passes:int ->
  ?slowdown:int ->
  mode:Remap.mode ->
  transport:transport ->
  Dataflow.Csdfg.t ->
  Topology.t ->
  string
(** {!key} of the default knobs with the given ones replaced. *)

val replan_canonical :
  parent:string ->
  failed_pes:int list ->
  failed_links:(int * int) list ->
  string
(** Canonical form of a replan request: the parent session key plus the
    sorted, deduplicated fault set (links normalised to [a <= b]).
    Chained replans compose — the reply's session key becomes the next
    request's [parent]. *)

val replan_digest :
  parent:string ->
  failed_pes:int list ->
  failed_links:(int * int) list ->
  string
(** MD5 of {!replan_canonical} in hex. *)
