(** Timing analysis of the intra-iteration (zero-delay) sub-DAG.

    All control steps are 1-based, matching the paper's schedule tables.
    Communication costs are deliberately ignored here: ASAP/ALAP feed the
    mobility term of the start-up priority function (Definition 3.4),
    which the paper defines on the dependence structure alone. *)

type t = {
  asap : int array;  (** earliest start step of each node (>= 1) *)
  alap : int array;  (** latest start step without stretching the critical path *)
  critical_path : int;  (** total time of the longest zero-delay path *)
}

val compute : Csdfg.t -> t
(** Builds the zero-delay sub-DAG and its topological order, then
    {!of_dag}.
    @raise Invalid_argument when the zero-delay subgraph is cyclic
    (illegal CSDFG). *)

val of_dag :
  Csdfg.t -> dag:Csdfg.attr Digraph.Graph.t -> order:int list -> t
(** {!compute} over a zero-delay sub-DAG ({!Csdfg.zero_delay_graph}) and a
    topological order of it that the caller already holds. *)

val mobility : t -> int -> int
(** [alap - asap >= 0]; 0 on critical nodes. *)
