(** Communication-oblivious baselines (the paper's §1 points of
    comparison) and a repair pass that makes their output legal under a
    real communication model.

    The oblivious schedulers run with {!Comm.zero}; their placements are
    then {e repaired} against the real model: processor assignments and
    per-processor execution order are kept, start times are recomputed as
    early as dependences, communication and resources allow, and the
    table is PSL-padded.  The gap between the repaired oblivious length
    and {!Compaction.run}'s length is exactly the benefit the paper
    claims for communication sensitivity. *)

val repair : Schedule.t -> Comm.t -> Schedule.t
(** Rebuild a legal schedule under [comm], preserving each node's
    processor and the relative execution order on every processor.
    @raise Invalid_argument when the input has unassigned nodes. *)

val list_oblivious : Dataflow.Csdfg.t -> Topology.t -> Schedule.t
(** Classical list scheduling (zero communication), repaired for the
    topology. *)

val rotation_oblivious :
  ?mode:Remap.mode ->
  ?passes:int ->
  Dataflow.Csdfg.t ->
  Topology.t ->
  Schedule.t
(** Chao–LaPaugh–Sha rotation scheduling: full cyclo-compaction run under
    zero communication, best schedule repaired for the topology. *)
