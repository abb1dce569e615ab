(** Elementary cycle enumeration (Johnson's algorithm).

    Intended for small graphs (validation, critical-cycle listings, test
    references); the number of elementary cycles can be exponential, so
    [max_cycles] bounds the enumeration.  The iteration bound itself does
    not enumerate: see {!Karp.maximum_cycle_ratio}. *)

val elementary : ?max_cycles:int -> 'e Graph.t -> int list list
(** Every elementary (simple) cycle as its node list, starting from the
    smallest node id of the cycle; deterministic order.  Self-loops are
    returned as singleton lists.  Stops after [max_cycles]
    (default 100_000). *)

val has_cycle : 'e Graph.t -> bool

val cycle_edges : 'e Graph.t -> int list -> 'e Graph.edge list
(** [cycle_edges g cyc] picks, for each consecutive pair of the cycle
    (wrapping around), the first edge linking them.
    @raise Invalid_argument when some hop has no edge. *)

val fold_cycle_weight :
  'e Graph.t -> int list -> f:('a -> 'e Graph.edge -> 'a) -> init:'a -> 'a
(** Fold [f] over the edges of a cycle (as in {!cycle_edges}). *)

val all_cycle_edges :
  ?max_variants:int -> 'e Graph.t -> int list -> 'e Graph.edge list list
(** Every way of realising a node cycle as edges, one choice per hop —
    multigraphs can have several parallel edges between consecutive
    cycle nodes, and each combination is a distinct elementary circuit.
    Truncated at [max_variants] (default 4096) combinations.
    @raise Invalid_argument when some hop has no edge. *)
