(** Quality metrics for comparing schedules. *)

val utilization : Schedule.t -> float
(** Busy processor-steps over [length * processors], in [0, 1]. *)

val processors_used : Schedule.t -> int

val speedup_vs_sequential : Schedule.t -> float
(** [total computation time / schedule length] — iteration throughput
    gain over a single processor. *)

val improvement : before:Schedule.t -> after:Schedule.t -> float
(** Relative length reduction in percent. *)

val comm_cost_per_iteration : Schedule.t -> int
(** Sum of [M(PE u, PE v)] over all edges whose endpoints sit on
    different processors — the communication the schedule pays every
    iteration. *)

val cross_edges : Schedule.t -> int
(** Number of edges crossing processors. *)

val comm_ratio : Schedule.t -> float
(** Communication cost per iteration over total computation per
    iteration. *)

val pp_summary : Format.formatter -> Schedule.t -> unit
