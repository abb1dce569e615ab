(** The remapping phase (Definition 4.2, Lemma 4.2).

    Rotated nodes are re-placed one at a time.  For each node and each
    processor the earliest admissible step is
    [max (AN, first idle slot)]; the candidate with the smallest step
    wins (ties: least added communication, then lowest processor id) —
    the paper's "minimum value returned from the anticipation function,
    else the next-minimum-available processor".

    {b Without relaxation} searches only slots finishing within the
    previous length and accepts the result only if its required length
    does not exceed it (Theorem 4.4's guarantee); otherwise the caller
    falls back to the pure rotation.  {b With relaxation} always places
    and accepts, padding the table to the projected schedule length. *)

type mode = Without_relaxation | With_relaxation

val pp_mode : Format.formatter -> mode -> unit

(** How candidate (processor, step) slots are ranked. *)
type scoring =
  | Pressure_first
      (** minimise the table length the placement forces — occupied rows
          plus the worst projected schedule length over the node's
          delayed edges — then the step, then added communication
          (default; see DESIGN.md) *)
  | Earliest_step
      (** the literal reading of the paper: minimise the control step,
          then added communication *)

val pp_scoring : Format.formatter -> scoring -> unit

(** Direction the rotated set is walked during re-placement.  [Forward]
    is {!place_order} as-is (original processor, then node id);
    [Reverse] walks the same list backwards.  Both are legal greedy
    orders — exposing the choice lets a portfolio diversify its
    tie-break behaviour without touching the candidate ranking. *)
type order = Forward | Reverse

val pp_order : Format.formatter -> order -> unit

type outcome =
  | Remapped of Schedule.t  (** accepted remap, already PSL-padded *)
  | Fallback of Schedule.t  (** pure rotation retained (without relaxation) *)
  | Stuck
      (** even the fallback grows the table (multi-cycle overhang);
          the pass must be undone *)

val run : ?scoring:scoring -> ?order:order -> mode -> Rotation.t -> outcome
(** [order] defaults to [Forward], the historical behaviour. *)

val place_order : Rotation.t -> int list
(** The deterministic order nodes are re-placed in: original processor,
    then node id. *)

(** The assigned neighbourhood of a node being placed, read off the
    schedule once: one {!Timing.placed} per edge between the node and
    an assigned neighbour, in edge order. *)
type neighbourhood = {
  preds : Timing.placed list;
      (** assigned producers, [row] their [CE]; self loops excluded *)
  succs : Timing.placed list;
      (** assigned consumers, [row] their [CB]; self loops excluded *)
  self_delay : int;  (** smallest positive self-loop delay; 0 when none *)
}

val neighbourhood : Schedule.t -> int -> neighbourhood
(** [neighbourhood sched v] reads [v]'s assigned neighbours in [sched].
    [v]'s own entry is not read, so [v] may be assigned or not. *)

val place_node :
  scoring:scoring ->
  limit:int option ->
  target:int ->
  Schedule.t ->
  int ->
  Schedule.t option
(** [place_node ~scoring ~limit ~target sched v] assigns the unplaced
    node [v] to its best candidate slot: on each processor the first
    idle slot at or after the anticipation function's earliest step for
    a table of length [target], ranked by [scoring], then step, then
    communication added against [v]'s assigned neighbours, then
    processor id.  Candidates ending after row [limit] are dropped;
    [None] when none is left (never with [limit = None]).  Added
    communication prices every edge between [v] and an assigned
    neighbour as a transfer from the neighbour's processor to [v]'s:
    exact for a symmetric cost such as {!Comm.of_topology}.

    Evaluation: [v]'s {!neighbourhood} is read once, then the
    processors are walked in ascending id keeping only the best
    candidate so far.  A processor is skipped before its slot search
    when its lower bound already loses to that best — step [AN], and
    [AN + t - 1] for the pressure under [Pressure_first] — or already
    ends after [limit]; added communication is computed only for a
    candidate that beats or ties that best on (pressure, step).  None of
    this changes the ranking: the choice is the smallest (pressure,
    step, added communication, processor) over every candidate. *)
