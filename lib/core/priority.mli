(** The start-up scheduler's priority function (Definitions 3.4 and 3.6).

    [PF v = max over zero-delay in-edges (u -m-> v) of
      m - (cs_cur - (CE u + 1)) - MB v]

    — data volume boosted the longer the producer has been done, reduced
    by the node's mobility.  Nodes with no scheduled zero-delay
    predecessor fall back to [-MB v]. *)

type t

(** Ready-list ordering strategies.  The paper's is {!Pf}; the others are
    classical list-scheduling priorities kept for comparison (bench
    A11). *)
type strategy =
  | Pf  (** Definition 3.6 (default) *)
  | Static_level
      (** HLFET: longest zero-delay path (node times included) from the
          node to any sink — larger level first *)
  | Mobility_only  (** least ALAP slack first, ignoring volumes *)
  | Fifo  (** arrival order (node id) — the weakest sensible baseline *)

val pp_strategy : Format.formatter -> strategy -> unit

val create : Dataflow.Csdfg.t -> t
(** Precomputes ASAP/ALAP and static levels on the zero-delay sub-DAG.
    @raise Invalid_argument when that subgraph is cyclic. *)

val of_dag :
  Dataflow.Csdfg.t ->
  dag:Dataflow.Csdfg.attr Digraph.Graph.t ->
  order:int list ->
  t
(** {!create} over a zero-delay sub-DAG and a topological order of it that
    the caller already holds, so both analyses share one copy. *)

val static_level : t -> int -> int
(** Longest zero-delay path starting at the node, including its own
    computation time. *)

val analysis : t -> Dataflow.Analysis.t

val mobility : t -> int -> int
(** [MB] — ALAP slack on the zero-delay sub-DAG (Definition 3.4). *)

(** {2 Placements}

    The functions below read the current placements through one array
    [ce] indexed by node: [ce.(u)] is the CE of a placed node [u], and 0
    for an unplaced one (a placed node's CE is at least 1).  The
    start-up sweep passes its own per-node CE array; a caller holding a
    {!Schedule.t} fills one from {!Schedule.ce}. *)

val pf : t -> ce:int array -> cs:int -> int -> int
(** [pf t ~ce ~cs v] — the priority of ready node [v] when control step
    [cs] is being filled. *)

val sort_ready :
  ?strategy:strategy -> t -> ce:int array -> cs:int -> int list -> int list
(** Descending priority under the strategy (default {!Pf}); ties broken
    by ascending node id for determinism. *)

type key = Affine of int | Const of int
    (** Step-invariant decomposition of {!score}: [Affine k] scores
        [k - cs] when step [cs] is being filled, [Const k] scores [k] at
        every step.  [compare (score ~cs a) (score ~cs b)] therefore never
        changes between steps within a class, which is what lets the
        start-up sweep keep its ready queue sorted instead of re-sorting
        it every control step. *)

val sort_key : strategy -> t -> ce:int array -> int -> key
(** The decomposition of [score strategy t ~ce ~cs v].  Valid for as
    long as the node's zero-delay predecessors keep their placements —
    for a {e ready} node they are all final, so the key can be computed
    once when the node turns ready. *)
