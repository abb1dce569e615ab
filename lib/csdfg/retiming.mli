(** Retiming of CSDFGs (Leiserson–Saxe, with the paper's sign convention).

    A retiming [r : V -> int] moves [r v] delays from every incoming edge
    of [v] onto every outgoing edge (paper §2), i.e. the retimed delay of
    an edge [u -> v] is [d(e) + r(u) - r(v)].  A retiming is legal when
    every retimed delay is non-negative.  Retiming never changes the total
    delay of a cycle. *)

type r = int array

val identity : Csdfg.t -> r

val retimed_delay : r -> Csdfg.attr Digraph.Graph.edge -> int
(** [d(e) + r(src) - r(dst)]. *)

val is_legal : Csdfg.t -> r -> bool

val illegal_edges : Csdfg.t -> r -> Csdfg.attr Digraph.Graph.edge list
(** Edges whose retimed delay would be negative. *)

val apply : Csdfg.t -> r -> Csdfg.t
(** Rebuild the CSDFG with retimed delays.
    @raise Invalid_argument when the retiming is illegal. *)

val rotate_set : Csdfg.t -> int list -> Csdfg.t
(** The paper's rotation (Definition 4.1): retime every node of the set by
    one — draw one delay from each incoming edge of the set, push one onto
    each outgoing edge.  Equal to {!apply} of that retiming, edge orders
    included, but only the set's edges are rewritten; everything else is
    shared with the input (see {!Csdfg.redelay}), so a compaction pass
    pays for its rotated row, not for the graph.
    @raise Invalid_argument when illegal (some incoming edge from outside
    the set has no delay to draw) or when a node is out of range. *)

val can_rotate : Csdfg.t -> int list -> bool
(** Whether {!rotate_set} is legal, i.e. {!is_legal} of the rotation
    retiming; reads only the set's in-edges.
    @raise Invalid_argument when a node is out of range. *)

val compose : r -> r -> r
(** Pointwise sum: applying [compose a b] equals applying [a] then [b]. *)

val normalize : r -> r
(** Shift so the minimum component is 0 (does not change edge delays). *)

val infer : original:Csdfg.t -> retimed:Csdfg.t -> r option
(** Recover the retiming that transformed [original] into [retimed]
    (same nodes and edges, delays possibly redistributed), normalized per
    weakly-connected component so the minimum is 0.  [None] when no
    retiming explains the delay difference.  This is how the compaction
    driver reconstructs the cumulative loop-pipelining depth for
    prologue/epilogue generation. *)

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
