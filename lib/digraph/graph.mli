(** Immutable directed multigraph over integer nodes [0 .. n-1].

    Nodes are dense integers fixed at creation time; edges carry an
    arbitrary label ['e] and are kept in insertion order.  The structure is
    persistent: every update returns a new graph, which keeps the scheduling
    algorithms (which explore many tentative graphs) simple and safe.

    Costs, for [n] nodes and [m] edges: each node's out- and in-edges and
    the list of all edges are stored once, in insertion order, so
    {!succ}, {!pred} and {!edges} are O(1) and allocate nothing, and
    {!iter_edges} walks the stored list without copying it.  {!create}
    and every update ({!map_labels}, {!filter_edges}) rebuild, in
    O(n + m). *)

type 'e edge = {
  src : int;  (** source node *)
  dst : int;  (** destination node *)
  label : 'e;  (** edge payload, e.g. delay/volume attributes *)
}

type 'e t

val empty : int -> 'e t
(** [empty n] is a graph with [n] nodes and no edges.
    @raise Invalid_argument if [n < 0]. *)

val create : n:int -> 'e edge list -> 'e t
(** [create ~n edges] builds a graph with [n] nodes and the given edges,
    in O(n + m).  The edge records are shared, not copied.
    @raise Invalid_argument if an endpoint is outside [0 .. n-1]. *)

val n_nodes : 'e t -> int
val n_edges : 'e t -> int

val nodes : 'e t -> int list
(** [nodes g] is [0; 1; ...; n-1]. *)

val edges : 'e t -> 'e edge list
(** All edges in insertion order: the stored list, O(1). *)

val succ : 'e t -> int -> 'e edge list
(** Outgoing edges of a node, in insertion order: the stored list, O(1).
    @raise Invalid_argument if the node is out of range. *)

val pred : 'e t -> int -> 'e edge list
(** Incoming edges of a node, in insertion order: the stored list, O(1).
    @raise Invalid_argument if the node is out of range. *)

val out_degree : 'e t -> int -> int
val in_degree : 'e t -> int -> int

val map_labels : ('e edge -> 'f) -> 'e t -> 'f t
(** Rebuild the graph applying a function to every edge. *)

val filter_edges : ('e edge -> bool) -> 'e t -> 'e t
(** Keep only edges satisfying the predicate (same node set). *)

val iter_edges : ('e edge -> unit) -> 'e t -> unit
