(** Independent legality checker for static cyclic schedules.

    Deliberately written against the timing rules only — it shares no
    placement logic with the schedulers, so it can catch their bugs.
    Every schedule emitted by {!Startup} and {!Compaction} must pass. *)

type violation =
  | Unassigned of int
  | Out_of_table of int  (** CE exceeds the table length *)
  | Overlap of int * int  (** two nodes sharing a processor-step cell *)
  | Dependence of Dataflow.Csdfg.attr Digraph.Graph.edge * int
      (** edge and the number of missing control steps *)
  | Missing_processor of int
      (** the node's processor is out of range or marked failed *)
  | Unroutable of Dataflow.Csdfg.attr Digraph.Graph.edge
      (** cross-processor edge with no surviving route *)

val pp_violation : Schedule.t -> Format.formatter -> violation -> unit

val check : Schedule.t -> (unit, violation list) result

val is_legal : Schedule.t -> bool

val check_topology :
  ?alive:bool array -> Schedule.t -> Topology.t -> (unit, violation list) result
(** Placement-vs-machine consistency: every assigned node sits on an
    in-range (and, when [alive] is given, live) processor, and every
    cross-processor edge between assigned endpoints has a route through
    live processors only.  Complements {!check}, which trusts the
    communication model: after a fault degrades the machine, a schedule
    can satisfy the timing rules yet reference processors or routes
    that no longer exist — this is the check degraded-mode replanning
    runs against the surviving sub-topology. *)

val assert_legal : Schedule.t -> unit
(** @raise Failure with a readable report when the schedule is illegal. *)

val simulate :
  Schedule.t -> iterations:int -> (unit, violation list) result
(** Brute-force cross-check: unroll the schedule over [iterations]
    iterations on a global timeline and re-verify every dependence and
    resource constraint positionally.  Slower but assumption-free; used
    by the test suite to corroborate {!check}. *)
