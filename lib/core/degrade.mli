(** Degraded-mode rescheduling after permanent machine faults.

    When a processor fail-stops or a link is permanently cut, the
    static schedule's communication bounds no longer hold on the
    machine that remains.  This module derives the surviving
    sub-topology (hop counts recomputed by the existing routing) and
    produces a legal schedule for it from the {e same retimed} graph
    the broken schedule used — recovery happens at an iteration
    boundary, and re-retiming would move tokens across that boundary.

    Two strategies, tried in order:
    - {e Patch}: keep every surviving node at its control step and
      re-place only the victims with {!Remap.place_node} (earliest
      step: anticipation function + first free slot, ties broken by
      added communication then processor id), then re-pad to the
      projected schedule length.  Cheap and minimally disruptive, but
      zero-delay successor constraints can make a patch infeasible.
    - {e Rebuild}: list-schedule the whole graph over the degraded
      machine with {!Startup} (no compaction, no retiming).  Always
      legal; usually moves more nodes.

    The resulting plan carries an explicit migration cost: every moved
    node's loop-carried state (the tokens on its delayed in-edges) is
    shipped from a donor processor — its old processor when alive,
    else the failed processor's nearest surviving neighbour, where a
    checkpoint would live — to its new home, priced by the degraded
    topology's own communication function. *)

type strategy = Patched | Rebuilt

type plan = {
  failed_pes : int list;  (** original ids, dead *)
  failed_links : (int * int) list;  (** original ids, permanently cut *)
  surviving : int array;  (** degraded pe -> original pe *)
  of_original : int array;  (** original pe -> degraded pe, [-1] if dead *)
  topology : Topology.t;  (** the degraded machine, renumbered [0..] *)
  schedule : Schedule.t;
      (** legal schedule over [topology], with the input schedule's
          graph, retiming and speeds (restricted to survivors) *)
  strategy : strategy;
  moved : (int * int * int) list;
      (** (node, old original pe, new original pe) for every node that
          changed processor *)
  migration_cost : int;  (** control steps to ship all moved state *)
}

val sub_topology :
  Topology.t ->
  failed_pes:int list ->
  failed_links:(int * int) list ->
  (int array * Topology.t, string) result
(** The machine that survives: processors not in [failed_pes]
    (renumbered ascending; the returned array maps new -> original)
    linked by the original links between two survivors that are not in
    [failed_links] (undirected, order-insensitive).  [Error] when no
    processor survives or the survivors are disconnected. *)

val replan :
  ?time_budget:float ->
  Schedule.t ->
  Topology.t ->
  failed_pes:int list ->
  failed_links:(int * int) list ->
  (plan, string) result
(** Derive a degraded plan for a schedule that ran on [topo].  The
    returned schedule is validated ({!Validator.check} plus
    {!Validator.check_topology} against the degraded machine) before
    being returned; an infeasible patch falls back to a rebuild.
    [Error] when the surviving machine is empty or disconnected.
    [time_budget] (seconds of wall clock) is checked at the phase
    boundaries of the replanning pipeline; expiry yields
    [Error] {!deadline_error}.
    @raise Invalid_argument when the schedule is incomplete or a
    failed processor is out of range. *)

val deadline_error : string
(** The exact [Error] payload [replan] returns when its [time_budget]
    expires — callers match on it to distinguish cancellation from a
    genuinely infeasible scenario. *)

val migration_volume : Schedule.t -> int -> int
(** The state that moves with a node: the tokens held on its delayed
    in-edges ([sum of volume * delay]), at least 1 (code/context). *)
