(** Deterministic fault scenarios for the machine simulator.

    A scenario is a list of injected faults on the simulator's virtual
    clock: fail-stop processor deaths, permanent or transient link
    outage windows, and per-link message loss probabilities.  Scenarios
    are pure data — {!arm} pairs one with a seed, and every random
    draw is a deterministic hash of [(seed, message id, transmission
    number)], so a fault run replays byte-identically for a fixed seed
    (pinned by test).

    The plain-text DSL (see docs/robustness.md) mirrors the processor
    numbering users see everywhere else: processors are 1-based in the
    text ([fail-pe 3] kills the processor printed as [pe3]) and 0-based
    in the parsed types. *)

type fault =
  | Pe_fail_stop of { pe : int; at : int }
      (** processor [pe] halts at virtual time [at]: instances that
          cannot finish strictly before [at] never start, and messages
          routed through the processor park *)
  | Link_down of { a : int; b : int; from_t : int; until : int option }
      (** the undirected link [a -- b] is unusable from [from_t];
          [until = Some u] reopens it at [u] (messages wait),
          [None] is a permanent cut (triggers degraded mode) *)
  | Link_lossy of { a : int; b : int; loss : float }
      (** every transmission over [a -- b] is lost with probability
          [loss] (in [0, 1)); lost messages retry with exponential
          backoff up to the scenario's retry bound *)

type scenario = {
  name : string;
  faults : fault list;
  max_retries : int;  (** per-hop retry bound before a drop (default 4) *)
  backoff_base : int;
      (** backoff before retry [k] is [backoff_base * 2^(k-1)] control
          steps (default 1) *)
  detect_delay : int;
      (** control steps between a permanent fault and the survivors
          halting for recovery (default 0) *)
}

val scenario :
  ?max_retries:int ->
  ?backoff_base:int ->
  ?detect_delay:int ->
  name:string ->
  fault list ->
  scenario
(** @raise Invalid_argument on a negative bound or a loss probability
    outside [0, 1). *)

val validate : scenario -> Topology.t -> (unit, string) result
(** Processors in range, link endpoints distinct and in range, fault
    times non-negative.  Links need not exist in the topology (a
    window on an absent link is inert), but out-of-range endpoints are
    rejected. *)

(** {2 Parsing} *)

type error = { line : int; message : string }

val error_to_string : error -> string

val of_string : string -> (scenario, error) result
(** Parse the scenario DSL:
    {v
    # comment
    scenario NAME
    retries 4
    backoff 1
    detect 2
    fail-pe 3 at 40
    link-down 1 2 from 10 until 30
    link-down 1 2 from 10
    link-lossy 1 2 0.25
    v}
    Processor ids are 1-based in the text. *)

val read_file : path:string -> (scenario, error) result
(** I/O failures surface as an error on line 0. *)

val to_string : scenario -> string
(** Round-trips through {!of_string}. *)

(** {2 Arming} *)

type armed = { scenario : scenario; seed : int }

val arm : ?seed:int -> scenario -> armed
(** [seed] defaults to 0. *)

val lost : seed:int -> msg:int -> xmit:int -> float -> bool
(** Whether transmission number [xmit] of message [msg] is lost under
    loss probability [p]: a deterministic uniform draw from the
    integer hash of [(seed, msg, xmit)] compared against [p].  Always
    false for [p <= 0]. *)

(** {2 Run report} *)

(** What a fault run measured, filled in by {!Simulator.execute} and
    judged by {!Audit.degradation}.  All processor ids are in the
    {e original} machine's numbering. *)
type report = {
  scenario_name : string;
  seed : int;
  failed_pes : int list;  (** fail-stopped processors *)
  failed_links : (int * int) list;  (** permanently cut links *)
  fault_time : int option;  (** earliest permanent fault, if any *)
  surviving_pes : int;
  retries : int;  (** lost transmissions that were retried *)
  drops : int;  (** messages dropped after exhausting retries *)
  undelivered : int;  (** messages sent but never delivered *)
  lost_instances : int;  (** instances that never ran *)
  completed_iterations : int;
      (** checkpoint prefix: iterations fully complete before recovery *)
  replayed_iterations : int;  (** iterations re-executed in degraded mode *)
  pre_fault_period : float;
  post_fault_period : float;  (** 0 when no degraded phase ran *)
  migration_cost : int;  (** control steps charged for state movement *)
  moved_nodes : int;
  recovery_latency : int;
      (** fault time to degraded-mode resume, inclusive of detection,
          drain and migration; 0 when no recovery was needed *)
  degraded_length : int option;  (** degraded schedule's table length *)
  replan_error : string option;
      (** set when no degraded schedule exists (machine disconnected,
          nothing survives) — the run could not recover *)
}

val pp_report : Format.formatter -> report -> unit
