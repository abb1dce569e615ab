(** Cyclo-compaction scheduling (Algorithm Cyclo-Compact, paper §4).

    Starting from the start-up schedule, each pass rotates the first row
    (implicit retiming / loop pipelining) and remaps the rotated nodes
    onto the best processors under the communication model.  The shortest
    schedule seen across all passes is returned ([Q] in the paper).
    Without relaxation the length is non-increasing pass over pass
    (Theorem 4.4); with relaxation intermediate passes may grow the table
    but often escape local minima the strict mode cannot. *)

type outcome =
  | Compacted  (** pass ended strictly shorter *)
  | Lateral  (** same length, different placement *)
  | Expanded  (** longer (with-relaxation only) *)
  | Fell_back  (** remap rejected; pure rotation kept *)
  | Stuck  (** pass undone; schedule unchanged *)

val pp_outcome : Format.formatter -> outcome -> unit

type trace_entry = {
  pass : int;
  rotated : string list;  (** labels of the rotated set J *)
  length : int;  (** table length after the pass *)
  outcome : outcome;
}

type result = {
  startup : Schedule.t;  (** the §3 initial schedule *)
  best : Schedule.t;  (** shortest schedule encountered *)
  final : Schedule.t;  (** state after the last pass *)
  trace : trace_entry list;  (** one entry per executed pass *)
  converged : bool;  (** stopped on a repeated state, not the pass budget *)
  timed_out : bool;
      (** the wall-clock [time_budget] expired before the pass budget;
          [best] is the best-so-far at cancellation *)
}

val default_passes : int -> int
(** The pass budget used when [?passes] is omitted: [max 16 (4 * n)]
    passes for an [n]-node graph — each node is typically rotated through
    the table a few times before the process cycles. *)

val run :
  ?mode:Remap.mode ->
  ?scoring:Remap.scoring ->
  ?order:Remap.order ->
  ?speeds:int array ->
  ?passes:int ->
  ?time_budget:float ->
  ?validate:bool ->
  Dataflow.Csdfg.t ->
  Comm.t ->
  result
(** [mode] defaults to [With_relaxation] (the paper's better performer),
    [scoring] to [Pressure_first] and [order] to [Forward]; [validate]
    (default [true]) re-checks every intermediate schedule with
    {!Validator} and raises [Failure] on any internal inconsistency.
    [time_budget] (seconds of wall clock, measured from the first pass)
    cancels the search at the next pass boundary once exceeded; the
    result then has [timed_out = true] and [best] holds the best
    schedule found so far — the start-up schedule at worst, so a timed
    out run still returns a legal schedule.
    @raise Invalid_argument when the CSDFG is illegal. *)

val run_on :
  ?mode:Remap.mode ->
  ?scoring:Remap.scoring ->
  ?order:Remap.order ->
  ?speeds:int array ->
  ?passes:int ->
  ?time_budget:float ->
  ?validate:bool ->
  Dataflow.Csdfg.t ->
  Topology.t ->
  result

val resume :
  ?mode:Remap.mode ->
  ?scoring:Remap.scoring ->
  ?order:Remap.order ->
  ?passes:int ->
  ?time_budget:float ->
  ?validate:bool ->
  Schedule.t ->
  result
(** Continue cyclo-compaction from an existing (complete, legal)
    schedule instead of a fresh start-up schedule — used when
    interleaving with {!Refine} perturbations.  The result's [startup]
    field holds the given schedule. *)

val pass :
  ?scoring:Remap.scoring ->
  ?order:Remap.order ->
  Remap.mode ->
  Schedule.t ->
  Schedule.t * outcome
(** One rotate-and-remap step (normalizes first); exposed for walkthrough
    examples and property tests. *)

(** {2 Resumable stepping}

    A {!stepper} holds one search's full mutable state — current
    schedule, best-so-far, trace, pass counter and the repeated-state
    table — so the pass loop can be paused and resumed without changing
    its trajectory.  [run]/[resume] are thin wrappers that drive a
    stepper to completion in one call, as {!Portfolio} does for each of
    its searches; a caller may also advance it a few passes at a time.
    For fixed knobs the executed pass sequence is byte-identical however
    the budget is sliced. *)

type stepper

val stepper :
  ?mode:Remap.mode ->
  ?scoring:Remap.scoring ->
  ?order:Remap.order ->
  budget:int ->
  ?validate:bool ->
  Schedule.t ->
  stepper
(** A fresh search positioned before pass 1, starting from the given
    (complete, legal) schedule.  [budget] caps the total passes across
    all {!advance} calls. *)

val advance :
  ?should_stop:(pass:int -> best:int -> bool) ->
  passes:int ->
  stepper ->
  [ `Finished | `Paused | `Stopped ]
(** Run up to [passes] further passes.  [`Finished]: the search
    converged (repeated state or stuck) or exhausted its budget —
    further calls return [`Finished] without running anything.
    [`Paused]: the slice was used up with the search still live.
    [`Stopped]: [should_stop] returned [true]; the stepper is retired
    exactly as if its budget had run out (its best-so-far stands).
    [should_stop] is consulted before {e every} pass with the 1-based
    index of the pass about to run and the current best length — the
    hook through which a wall-clock deadline stops a search, and
    {!Portfolio} stops one that has reached the lower bound. *)

val stepper_result : stepper -> result
(** Snapshot the stepper as a {!result} ([startup] = the initial
    schedule, [final] = current state, [converged] = stopped on a
    repeated state rather than budget/[should_stop]).  Also publishes
    the best length to the [compaction.best_length] gauge. *)

val passes_run : stepper -> int
(** Passes executed so far. *)

val pp_trace : Format.formatter -> trace_entry list -> unit
