(** Shortest- and longest-path algorithms.

    Edge weights are supplied by a callback so the same graph can be
    measured along different attributes (hops, delay, volume, ...). *)

val unreachable : int
(** Sentinel distance for unreachable pairs ([max_int / 4], safe to add). *)

val dijkstra_tree :
  'e Graph.t ->
  weight:('e Graph.edge -> int) ->
  src:int ->
  int array * int array
(** Single-source shortest distances with non-negative weights, and the
    shortest-path tree as parent pointers ([-1] at the root and for
    unreachable nodes).  Unreachable nodes get distance {!unreachable}.
    @raise Invalid_argument on a negative edge weight. *)

val feasible_potentials :
  'e Graph.t -> weight:('e Graph.edge -> int) -> int array option
(** A solution [p] to the difference constraints
    [p.(dst) - p.(src) <= weight e] for every edge — i.e. shortest
    distances from a virtual super-source.  [None] when the system is
    infeasible (negative cycle).  This is the engine behind retiming
    feasibility. *)
