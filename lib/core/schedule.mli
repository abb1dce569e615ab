(** Static cyclic schedule tables.

    A schedule assigns each node a starting control step [CB >= 1]
    (Definition 3.1) and a processor [PE] (Definition 3.3), inside a table
    of [length] control steps that repeats every iteration.  A node [v]
    occupies processor [PE v] during [CB v .. CE v] where
    [CE v = CB v + t v - 1] (Definition 3.2).

    The table [length] can exceed the last occupied row: trailing idle
    steps are how the projected-schedule-length constraint (Lemma 4.3) is
    honoured.

    Placement queries are served from an incremental per-processor
    occupancy index (disjoint intervals per PE in a persistent map keyed
    by start, maintained by {!assign} / {!unassign}) rather than by
    scanning every node: with [k] the number of nodes on the queried
    processor, {!is_free} and {!node_at} are one O(log k) neighbour
    lookup, {!first_free_slot} one O(log k) split and then an in-order
    walk over the runs it jumps, and {!first_row} and {!rows_needed}
    O(P log k) over the per-PE extremes.  Whole-schedule reads
    ({!iter_placements}, and through it {!hash}, {!signature},
    {!compare_assignments}, the validator and the exports) walk the node
    table once in id order: O(V), with no lookup per node.  Rows are
    stored with a per-schedule offset, so {!shift_up} moves the whole
    table without touching a placement.  docs/model.md, "Scheduler
    complexity", has the full table.

    A schedule also carries a retiming [r], one integer per node: the
    cumulative effect of the rotations it went through (Lemma 4.1).  The
    graph it was built on is never rewritten; an edge [u -> v] of it
    carries [d(e) + r(u) - r(v)] delays in this table, read with
    {!delay}. *)

type entry = { cb : int; pe : int }

type t

val empty :
  ?speeds:int array ->
  ?retiming:Dataflow.Retiming.r ->
  Dataflow.Csdfg.t ->
  Comm.t ->
  t
(** No assignments, length 0.  [speeds] (default all 1) gives each
    processor a cycle-time multiplier: node [v] on processor [p] runs
    for [time v * speeds.(p)] control steps — heterogeneous machines.
    [retiming] (default all 0) is the retiming the table is read under
    (copied); legality is not checked here.
    @raise Invalid_argument when the speeds size differs from the
    processor count, a speed is non-positive, or the retiming size
    differs from the node count. *)

val speeds : t -> int array
(** Per-processor cycle-time multipliers (a copy). *)

val is_heterogeneous : t -> bool

val duration : t -> node:int -> pe:int -> int
(** Execution time of a node on a given processor:
    [time node * speeds.(pe)]. *)

val dfg : t -> Dataflow.Csdfg.t
(** The graph the schedule was built on, with its own delays. *)

val retiming : t -> Dataflow.Retiming.r
(** The cumulative retiming [r] (a copy). *)

val delay : t -> Dataflow.Csdfg.attr Digraph.Graph.edge -> int
(** [delay t e] is [d(e) + r(src) - r(dst)]: the delay edge [e] of
    {!dfg} carries under the schedule's retiming.  Every reader of a
    retimed delay goes through this. *)

val retime : t -> int list -> t
(** Add one to [r] on every listed node — the rotation's retiming
    (Definition 4.1): one copy of [r] and one write per node.  Legality
    (no negative {!delay}) is the caller's to check.
    @raise Invalid_argument when a node is out of range. *)

val comm : t -> Comm.t
val length : t -> int
val n_processors : t -> int

val set_length : t -> int -> t
(** @raise Invalid_argument when shorter than {!rows_needed}. *)

val entry : t -> int -> entry option
val is_assigned : t -> int -> bool
val assigned_all : t -> bool
val n_assigned : t -> int

val cb : t -> int -> int
(** @raise Invalid_argument when the node is unassigned. *)

val ce : t -> int -> int
(** [cb + duration - 1] on the assigned processor.
    @raise Invalid_argument when unassigned. *)

val pe : t -> int -> int
(** @raise Invalid_argument when the node is unassigned. *)

val assign : t -> node:int -> cb:int -> pe:int -> t
(** Table length grows to cover the node; the occupied span is the
    node's {!duration} on that processor.
    @raise Invalid_argument when [cb < 1], the processor is out of range,
    the node is already assigned, or the slot overlaps another node. *)

val unassign : t -> int -> t

val unassign_all : t -> int list -> t

val with_comm : t -> Comm.t -> t
(** Re-cost the same placements under a different communication model
    (e.g. evaluate a store-and-forward schedule under wormhole costs).
    The result may need a different {!val-length}; re-check with
    [Timing.required_length] / the validator.
    @raise Invalid_argument when the processor count differs. *)

val is_free : t -> pe:int -> cb:int -> span:int -> bool
(** Whether processor [pe] is idle during [cb .. cb + span - 1]. *)

val node_at : t -> pe:int -> cs:int -> int option
(** The node occupying a cell, if any. *)

val first_free_slot : t -> pe:int -> from:int -> span:int -> int
(** Earliest [cs >= from] such that the span fits on the processor. *)

val iter_placements : (int -> cb:int -> pe:int -> unit) -> t -> unit
(** [iter_placements f t] calls [f v ~cb ~pe] once per assigned node, in
    ascending node id, with table rows: one in-order walk of the node
    table, O(V) with no per-node lookup. *)

val first_row : t -> int list
(** Nodes with [CB = 1], ascending (the rotation set [J], Definition 4.1). *)

val rows_needed : t -> int
(** Largest [CE] over assigned nodes; 0 when nothing is assigned. *)

val shift_up : t -> t
(** Subtract one from every [CB]; length decreases by one.  O(P): the
    row-1 check, then an offset bump — no placement is rebuilt.
    @raise Invalid_argument when some node starts at row 1. *)

val normalize : t -> t
(** Shift up while row 1 is unoccupied (uniform shifts never change
    schedule semantics), and clamp [length] down to {!rows_needed} when it
    exceeds it needlessly — callers re-pad via PSL afterwards. *)

val compare_assignments : t -> t -> int
(** Order on (length, entries) — detects fixed points across passes. *)

val signature : t -> string
(** Compact canonical string of (length, entries); equal iff
    {!compare_assignments} = 0. *)

val hash : t -> int
(** Allocation-free structural hash of (length, entries): equal whenever
    {!compare_assignments} = 0 (the converse holds only up to hash
    collisions).  Used for cheap cycle detection in compaction. *)

val pp : Format.formatter -> t -> unit
(** Paper-style table: one row per control step, one column per
    processor, multi-cycle nodes repeated in each occupied row. *)

val pp_compact : Format.formatter -> t -> unit
(** One line: name, length, assignment summary. *)
