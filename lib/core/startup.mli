(** Start-up scheduling (paper §3.1): communication-aware list scheduling
    of the intra-iteration (zero-delay) sub-DAG, followed by PSL padding
    so the loop-carried, cross-processor dependencies are honoured.

    Control steps are swept upward; at each step the ready nodes are
    visited in descending {!Priority.pf} order, and each is placed on the
    feasible processor that minimises its data-arrival bound
    [max over preds (CE u + M(PE u, p))] (ties to the lowest processor
    id).  A node is feasible on [p] at step [cs] when every scheduled
    zero-delay predecessor satisfies [CE u + M(PE u, p) < cs] and [p] is
    idle for the node's whole span.  Unplaceable nodes are deferred to the
    next step.

    The sweep keeps its placements in per-run arrays: CB, PE and CE per
    node, and per processor the last node placed and its CE (its tail).
    Nodes are only ever placed at the current step, which never
    decreases, so a processor is idle at [cs] for any span exactly when
    its tail is below [cs]; {!Priority} reads placements through the CE
    array.  The {!Schedule.t} is built once the sweep ends, by one
    {!Schedule.assign} per placement in placement order (whose overlap
    check re-verifies the sweep), then padded to the required length. *)

val run :
  ?priority_strategy:Priority.strategy ->
  ?speeds:int array ->
  Dataflow.Csdfg.t ->
  Comm.t ->
  Schedule.t
(** [priority_strategy] defaults to the paper's PF (Definition 3.6);
    [speeds] selects a heterogeneous machine (see {!Schedule.empty}).
    @raise Invalid_argument when the CSDFG is illegal or the speeds are
    malformed. *)

val run_on :
  ?priority_strategy:Priority.strategy ->
  ?speeds:int array ->
  Dataflow.Csdfg.t ->
  Topology.t ->
  Schedule.t
(** [run] over {!Comm.of_topology}. *)
