(** Topological ordering of acyclic graphs. *)

val sort : 'e Graph.t -> int list option
(** Kahn's algorithm.  [Some order] lists every node with all edge sources
    before their destinations; [None] when the graph has a cycle.
    Ties are broken by ascending node id, so the order is deterministic. *)

val sort_exn : 'e Graph.t -> int list
(** @raise Invalid_argument when the graph has a cycle. *)

val find_cycle : 'e Graph.t -> int list option
(** [None] when the graph is acyclic; otherwise one elementary cycle as
    its nodes in edge order (each node has an edge to the next, the last
    to the first), starting at its smallest node.  A self-loop is a
    one-node cycle.  One pass, O(n + m): Kahn's pass, then a walk back
    from the smallest node it could not order, through the first such
    predecessor of each node, until a node repeats. *)

val rotate_to_smallest : int list -> int list
(** A cycle's nodes, in the same cyclic order, starting at its smallest
    node: how {!find_cycle} returns a cycle. *)

val is_dag : 'e Graph.t -> bool
(** [find_cycle g = None]. *)

val longest_path_nodes : 'e Graph.t -> weight:(int -> int) -> int
(** Longest node-weighted path in a DAG (sum of [weight v] over the
    path's nodes); 0 for the empty graph.
    @raise Invalid_argument when the graph has a cycle. *)
