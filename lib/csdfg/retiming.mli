(** Retiming of CSDFGs (Leiserson–Saxe, with the paper's sign convention).

    A retiming [r : V -> int] moves [r v] delays from every incoming edge
    of [v] onto every outgoing edge (paper §2), i.e. the retimed delay of
    an edge [u -> v] is [d(e) + r(u) - r(v)].  A retiming is legal when
    every retimed delay is non-negative.  Retiming never changes the total
    delay of a cycle.

    Cyclo-compaction keeps its retiming as such a vector on the schedule
    ([Cyclo.Schedule.retiming]), one rotation adding one on the rotated
    row; {!apply} builds the retimed graph for the few readers that need
    a whole graph. *)

type r = int array

val identity : Csdfg.t -> r

val retimed_delay : r -> Csdfg.attr Digraph.Graph.edge -> int
(** [d(e) + r(src) - r(dst)]. *)

val is_legal : Csdfg.t -> r -> bool

val illegal_edges : Csdfg.t -> r -> Csdfg.attr Digraph.Graph.edge list
(** Edges whose retimed delay would be negative. *)

val apply : Csdfg.t -> r -> Csdfg.t
(** Rebuild the CSDFG with retimed delays, edge order kept.
    @raise Invalid_argument when the retiming is illegal. *)

(** {1 Clock-period minimisation (Leiserson–Saxe OPT)}

    Not used by cyclo-compaction itself, but the classical result the
    rotation technique builds on; exposed for analysis and tests. *)

val clock_period : Csdfg.t -> int
(** Maximum total node time along a zero-delay path (the length of an
    unlimited-resource, zero-communication schedule).
    @raise Invalid_argument when the CSDFG is illegal. *)

val wd_matrices : Csdfg.t -> int array array * int array array
(** The [(W, D)] matrices: [W.(u).(v)] is the minimum delay over paths
    [u -> v] and [D.(u).(v)] the maximum time over minimum-delay paths;
    [W] holds [Digraph.Paths.unreachable] where no path exists. *)

val feasible : Csdfg.t -> period:int -> r option
(** A legal retiming making the clock period at most [period], when one
    exists. *)

val min_period : Csdfg.t -> int * r
(** The minimum achievable clock period over all legal retimings, with a
    witness retiming. *)
