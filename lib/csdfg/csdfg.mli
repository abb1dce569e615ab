(** Communication-sensitive data-flow graphs (paper §2).

    A CSDFG [G = (V, E, d, t, c)] is a node- and edge-weighted directed
    graph: [t v > 0] is the computation time of node [v] (general-time,
    multi-cycle nodes allowed), [d e >= 0] is the loop-carried delay of
    edge [e] (how many iterations the dependence spans), and [c e > 0] is
    the data volume shipped when the endpoints run on different
    processors.  A legal CSDFG has strictly positive total delay on every
    cycle. *)

type attr = { delay : int; volume : int }

type t

(** {1 Construction} *)

val make :
  name:string ->
  nodes:(string * int) list ->
  edges:(string * string * int * int) list ->
  t
(** [make ~name ~nodes ~edges] builds a CSDFG.  [nodes] lists
    [(label, computation_time)]; [edges] lists
    [(src_label, dst_label, delay, volume)].
    @raise Invalid_argument on duplicate labels, unknown labels,
    non-positive times or volumes, or negative delays.
    Legality of cycles is {e not} checked here; see {!validate}. *)

val of_graph :
  name:string -> labels:string array -> time:int array -> attr Digraph.Graph.t -> t
(** Lower-level constructor used by transformations.
    @raise Invalid_argument on size mismatches or invalid weights. *)

(** {1 Accessors} *)

val name : t -> string
val graph : t -> attr Digraph.Graph.t
val n_nodes : t -> int
val n_edges : t -> int
val nodes : t -> int list
val time : t -> int -> int
val label : t -> int -> string
val node_of_label : t -> string -> int
(** @raise Not_found when the label is unknown. *)

val edges : t -> attr Digraph.Graph.edge list
val succ : t -> int -> attr Digraph.Graph.edge list
val pred : t -> int -> attr Digraph.Graph.edge list
val delay : attr Digraph.Graph.edge -> int
val volume : attr Digraph.Graph.edge -> int

val total_time : t -> int
(** Sum of all node computation times (the sequential schedule length). *)

val max_time : t -> int

(** {1 Validation} *)

type violation =
  | Zero_delay_cycle of int list
      (** a cycle whose total delay is 0, as its nodes in edge order from
          its smallest node *)
  | Bad_time of int  (** node with non-positive computation time *)
  | Bad_volume of int * int  (** edge endpoints with non-positive volume *)
  | Negative_delay of int * int  (** edge endpoints with negative delay *)

val pp_violation : t -> Format.formatter -> violation -> unit

val validate : t -> (unit, violation list) result
(** A CSDFG is legal when every cycle carries strictly positive delay and
    all weights are in range.  One O(n + m) pass over the zero-delay
    subgraph checks the cycles and names one offending cycle
    ({!Digraph.Topo.find_cycle}). *)

val check : t -> (unit, string) result
(** {!validate}, with its first problem as ["illegal CSDFG: ..."]: the
    message of the daemon's [bad_graph] reply and of the CLI. *)

val is_legal : t -> bool

(** {1 Views} *)

val zero_delay_graph : t -> attr Digraph.Graph.t
(** The intra-iteration sub-DAG: only edges with [d e = 0].  For a legal
    CSDFG this is acyclic (the start-up scheduler's input, §3.1). *)

val pp : Format.formatter -> t -> unit
val pp_stats : Format.formatter -> t -> unit
