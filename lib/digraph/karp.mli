(** Cycle ratios.

    [maximum_cycle_ratio] computes [max over cycles (sum num / sum den)] —
    with numerator = node computation time and denominator = edge delay
    this is exactly the iteration bound of a data-flow graph. *)

val maximum_cycle_ratio :
  'e Graph.t ->
  num:('e Graph.edge -> int) ->
  den:('e Graph.edge -> int) ->
  (int * int) option
(** Exact maximum of [sum num / sum den] over cycles, as the unreduced
    fraction of a critical elementary cycle; [None] when acyclic.
    Denominator sums must be strictly positive on every cycle.

    Parametric search: each step finds, by Bellman-Ford with integer
    weights, a cycle whose ratio beats the current one, until none is
    left.  No cycle is enumerated, so the result is exact at any graph
    size.  A step costs O(n * m) at worst, and the ratio rises at every
    step, so the steps are at most the distinct cycle ratios; on the
    10^3 to 10^5-node layered scale graphs it takes 2 to 4 steps and 5
    to 9 sweeps in all.
    @raise Invalid_argument when the search meets a cycle whose
    denominator sum is <= 0 — with positive numerators (node times, as
    for the iteration bound) every such cycle is met — and when no cycle
    beats even the lowest ratio yet one linear {!Topo.is_dag} pass finds
    a cycle. *)

val critical_cycle :
  'e Graph.t ->
  num:('e Graph.edge -> int) ->
  den:('e Graph.edge -> int) ->
  ((int * int) * 'e Graph.edge list) option
(** {!maximum_cycle_ratio} together with the search's last witness: an
    elementary cycle attaining the maximum, as its edges in path order
    (each edge's [dst] is the next edge's [src]).  The ratio is that
    cycle's own unreduced sums.  Same cost and exceptions. *)
