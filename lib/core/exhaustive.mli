(** Exact branch-and-bound scheduler for small instances.

    Searches every (processor, control step) placement under the same
    timing rules as the heuristics, via iterative deepening on the table
    length.  Exponential — intended for graphs of up to ~8 nodes, where
    it provides ground truth for measuring the optimality gap of
    cyclo-compaction (bench A4). *)

type outcome =
  | Optimal of Schedule.t  (** provably minimum-length schedule *)
  | Gave_up of Schedule.t option
      (** state budget exhausted; carries the best schedule found *)

val lower_bound : Dataflow.Csdfg.t -> Comm.t -> int
(** [max] of the iteration bound, the resource bound
    [ceil (total work / processors)] and the longest single task. *)

val solve :
  ?speeds:int array ->
  ?max_states:int ->
  ?max_length:int ->
  ?time_budget:float ->
  ?shards:int ->
  ?domains:int ->
  Dataflow.Csdfg.t ->
  Comm.t ->
  outcome
(** [max_states] bounds the search nodes each shard visits, counted
    across every table length of the deepening (default 2_000_000);
    [max_length] bounds the deepening (default: the start-up schedule's
    length, which is always feasible); [time_budget] is a wall-clock
    limit in seconds (checked every 1024 search nodes, so very small
    searches may finish instead of timing out).  When either budget
    runs out (with [shards > 1], on a root ordinal below the smallest
    solved one; see below), {!Gave_up} carries the start-up schedule
    as the best known answer — unless an explicit [max_length]
    excludes it.

    [shards] (default 1) splits each deepening level across shards by
    round-robin over the root node's candidate (processor, step)
    placements, numbered in scan order, running the shards over
    [domains] domains (default {!Parutil.Parallel.recommended_domains});
    one shard runs inline.  Each shard stops at its first solution and
    publishes its ordinal through a shared [Atomic], letting shards
    that can no longer hold the minimum cancel themselves mid-search.
    The reported schedule is the minimum-ordinal solution — exactly the
    one a single shard finds first — so the answer does not depend on
    [shards], with one caveat: [max_states] applies {e per shard}
    (total explored states may reach [shards * max_states]), and the
    solve degrades to {!Gave_up} when a shard exhausts a budget on a
    root ordinal below the smallest solved one (one above it cannot
    change the answer).  Under a binding budget, [shards > 1] may
    therefore give up where one shard solves, or the reverse.  For
    fixed [shards] and [max_states] the outcome depends neither on
    [domains] nor on timing: no shard is cancelled below the smallest
    solved ordinal, so the budgets that run out there are the same in
    every run.
    @raise Invalid_argument on an illegal CSDFG or [shards < 1]. *)

val optimality_gap : Schedule.t -> int option
(** [length - optimal length] for the schedule's retimed graph
    ([Dataflow.Retiming.apply] of its retiming) and communication model;
    [None] when the exact solver gave up. *)
