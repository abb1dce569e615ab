(** Iteration bound of a cyclic data-flow graph.

    The iteration bound [B(G) = max over cycles C of T(C) / D(C)] (total
    computation time over total delay) is the theoretical minimum average
    schedule length per iteration, regardless of processor count — a
    floor against which cyclo-compaction results can be judged. *)

val exact : Csdfg.t -> (int * int) option
(** Unreduced fraction [T(C') / D(C')] of a critical cycle; [None] for
    acyclic graphs.  Exact at any graph size: found by a parametric
    search over cycle ratios ({!Digraph.Karp.maximum_cycle_ratio}), not
    by enumerating cycles. *)

val exact_ceil : Csdfg.t -> int option
(** [ceil] of {!exact} — the smallest integer schedule length per
    iteration permitted by the loop-carried dependencies. *)

val critical_cycle : Csdfg.t -> int list option
(** One elementary cycle attaining the bound, as its nodes in path order
    from its smallest node id; [None] for acyclic graphs.  It is the
    last witness of the search behind {!exact}, so it is found at any
    graph size.  When several cycles attain the bound, which one is
    returned is a deterministic function of the graph. *)
