(** Timing rules shared by the scheduler, the remapper and the validator.

    Convention used throughout (see DESIGN.md): a value produced at the
    end of control step [CE u] and shipped at cost [M] is consumable from
    control step [CE u + M + 1] on.  For an edge [u -e-> v] with delay
    [d e] and table length [L], node [v] of iteration [i] reads data from
    node [u] of iteration [i - d e], so legality is

    [CB v + d e * L >= CE u + M + 1]. *)

val edge_cost : Schedule.t -> Dataflow.Csdfg.attr Digraph.Graph.edge -> int
(** [M(PE u, PE v) = hops * volume] for a scheduled edge.
    @raise Invalid_argument when either endpoint is unassigned. *)

val edge_ok : Schedule.t -> Dataflow.Csdfg.attr Digraph.Graph.edge -> bool
(** The legality inequality above, at the schedule's current length. *)

val psl_edge : Schedule.t -> Dataflow.Csdfg.attr Digraph.Graph.edge -> int option
(** Projected schedule length of one edge (Lemma 4.3, with the [+1]
    arrival convention):
    [ceil ((M + CE u - CB v + 1) / d e)] for edges with [d e > 0];
    [None] for zero-delay edges (their legality does not depend on [L]).
    Unassigned endpoints yield [None]. *)

val psl : cost:int -> ce:int -> cb:int -> delay:int -> int
(** Lemma 4.3's bound for one edge of positive [delay], from its
    transfer [cost], its source's [ce] and its destination's [cb]:
    [ceil ((cost + ce - cb + 1) / delay)], which may be negative. *)

val required_length : Schedule.t -> int
(** Minimum legal table length for the current assignments:
    [max (rows_needed) (max over edges of psl_edge)].  Zero-delay edges
    must already be honoured by placement; they do not contribute.  Each
    delayed edge reads its two endpoints with one {!Schedule.entry}
    each. *)

val zero_delay_violations :
  Schedule.t -> Dataflow.Csdfg.attr Digraph.Graph.edge list
(** Zero-delay edges whose placement breaks
    [CB v >= CE u + M + 1] (both endpoints assigned). *)

(** An assigned neighbour of a node being placed, read off the schedule
    once ([Remap.neighbourhood] gathers them). *)
type placed = {
  pe : int;  (** the neighbour's processor *)
  row : int;  (** its [CE] when it is a producer, its [CB] when a consumer *)
  delay : int;  (** the edge's retimed delay ({!Schedule.delay}) *)
  volume : int;  (** the edge's data volume *)
}

val anticipation : Comm.t -> pe:int -> target_length:int -> placed list -> int
(** The anticipation function [AN] (Lemma 4.2) generalised over all
    assigned predecessors:
    [max over in-edges of (M(PE u, pe) + CE u + 1 - d_r e * target_length)],
    clamped to at least 1, over a node's assigned producers (self loops
    excluded).  Unassigned predecessors are left out of the list: they
    are constrained in the other direction when they get placed. *)
