(** Prologue / epilogue generation for pipelined loops (paper §2).

    Cyclo-compaction implicitly retimes the loop: in the compacted
    kernel, node [v] of kernel iteration [i] computes original iteration
    [i + r v] where [r] is the cumulative retiming.  Executing the loop
    therefore needs a {e prologue} (the instructions of original
    iterations that the first kernel iteration assumes already done) and
    an {e epilogue} (the instructions the last kernel iterations leave
    unfinished).  The paper treats their cost as negligible; this module
    makes them explicit so that claim can be measured. *)

type instruction = {
  node : int;  (** node id in the original CSDFG *)
  iteration : int;  (** original loop iteration the instance computes *)
}

type t = {
  retiming : Dataflow.Retiming.r;
      (** the kernel's cumulative retiming, each weakly connected
          component shifted to minimum 0 *)
  depth : int;  (** max retiming = pipeline depth in iterations *)
  prologue : instruction list;
      (** steady-state prologue (valid for [n >= depth]), ordered by
          iteration, then node *)
  prologue_per_n : int -> instruction list;
      (** prologue for a total loop count [n]: equals [prologue] for
          [n >= depth]; for shorter loops each node is clamped to
          iterations [< n] so no unrequested iteration executes *)
  epilogue_per_n : int -> instruction list;
      (** epilogue for a total loop count [n] *)
  kernel : Schedule.t;
}

val build : Schedule.t -> t
(** [build kernel] reads the retiming the kernel carries
    ({!Schedule.retiming}), with each weakly connected component of its
    graph shifted to minimum 0 — the vector [ccsched export -f csv]
    records. *)

val prologue_length : t -> int
(** Number of steady-state prologue instructions ([sum r]). *)

val prologue_length_for : t -> n:int -> int
(** Number of prologue instructions actually executed for [n] total
    iterations (clamped in the degenerate [n < depth] case). *)

val epilogue_length : t -> n:int -> int
(** Number of epilogue instructions for [n] total iterations. *)

val overhead_ratio : t -> n:int -> float
(** (prologue + epilogue work) / (total work over [n] iterations) — the
    quantity the paper assumes is negligible for large [n].  Uses the
    [n]-clamped prologue, so degenerate short loops are not
    over-counted. *)

val total_time : t -> n:int -> int
(** Wall-clock control steps to run [n] iterations: sequential
    ([n]-clamped) prologue and epilogue around [max 0 (n - depth)] kernel
    repetitions (a conservative upper bound; prologue instructions are
    counted at their computation time with no overlap). *)

val pp : Dataflow.Csdfg.t -> Format.formatter -> t -> unit
