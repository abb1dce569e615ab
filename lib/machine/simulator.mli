(** Event-driven execution of a static cyclic schedule on a simulated
    message-passing machine.

    The paper's analytical model assumes store-and-forward transport over
    contention-free multiple channels (§2).  This simulator actually
    executes the schedule, routing every message hop by hop over the
    topology's links, and measures what happens — both under the paper's
    assumption ({!Contention_free}) and with single-channel FIFO links
    ({!Fifo_links}) where messages queue.

    Execution is {e self-timed}: each processor runs its instances in
    static-schedule order, and an instance starts as soon as its inputs
    have arrived and the processor is free.  Under the contention-free
    policy a legal schedule's execution can never fall behind the static
    timing, so the measured makespan is at most
    [(iterations - 1) * L + max CE] — a property the test suite checks.

    One event loop runs every simulation; only the crossing of a link
    depends on the transport, and the transport only on whether
    [faults] is given.  Without it, contention-free and wormhole
    transfers are computed analytically and FIFO store-and-forward is
    stepped hop by hop; with it, store-and-forward is stepped hop by hop
    under either policy.  Known defect: without [faults], a FIFO link
    can be held by two messages in overlapping windows (docs/model.md,
    "Execution semantics"). *)

type policy =
  | Contention_free  (** infinite channels per link (the paper's model) *)
  | Fifo_links  (** each directed link carries one message at a time *)

(** How a message crosses the network: the request spec's transport.
    Every hop and window is priced by its {!Cyclo.Comm.of_transport}
    model, on the routes {!Topology.route} reads off the machine's
    stored shortest-path trees. *)
type transport = Cyclo.Comm.transport =
  | Store_and_forward
      (** the paper's model: each hop stores the whole message *)
  | Wormhole
      (** pipelined cut-through, one window per transfer; under
          {!Fifo_links} the whole path is reserved for the window (a
          conservative circuit-switched approximation) *)

type stats = {
  policy : policy;
  transport : transport;
  iterations : int;
  makespan : int;  (** completion time of the last instance (time 0 start) *)
  average_period : float;
      (** asymptotic control steps per iteration, measured over the
          second half of the run to skip pipeline fill *)
  messages : int;
      (** cross-processor messages sent, delivered or not: under faults,
          the delivered ones plus the report's [undelivered] *)
  message_hops : int;  (** total link traversals *)
  max_link_backlog : int;
      (** worst number of messages ever waiting on one directed link
          (always 0 under {!Contention_free}) *)
  busy : int array;
      (** per-processor busy time — a fresh copy per call, safe to
          mutate *)
  per_pe_utilization : float array;
      (** per-processor [busy / makespan], index = processor (original
          machine numbering, even after degraded-mode recovery) *)
  utilization : float;  (** total busy time / (processors * makespan) *)
  faults : Faults.report option;
      (** what the fault run measured; [None] for fault-free runs *)
}

val execute :
  ?policy:policy ->
  ?transport:transport ->
  ?recorder:Events.recorder ->
  ?faults:Faults.armed ->
  Cyclo.Schedule.t ->
  Topology.t ->
  iterations:int ->
  stats
(** [transport] defaults to {!Store_and_forward}.  Pair {!Wormhole} with
    schedules built against {!Cyclo.Comm.wormhole} costs for the
    slowdown-1 guarantee to apply.

    [recorder], when given, receives the full typed event stream of the
    run (see {!Events}): instance starts/finishes, message sends, link
    hops, deliveries, and stalls attributed to their proximate cause.
    Recording is strictly observational — the returned stats are
    identical with or without it (pinned by test).

    Observability: besides the event stream, [execute] always feeds the
    {!Obs} registries (one atomic flag read each when disabled) —
    counters [simulator.messages], [simulator.message_hops],
    [simulator.events], [simulator.stalls] and the gauge
    [simulator.max_link_backlog], plus histograms
    [simulator.msg_latency] (send-to-delivery control steps),
    [simulator.link_backlog] (queue depth seen by each message that had
    to wait) and [simulator.instance_slip] (per-instance start delay vs
    the static promise [CB + k*L], 0 when on time).

    [faults], when given, injects an armed fault scenario (see
    {!Faults}) into the run.  Transport is stepped hop by hop so outage
    windows and loss draws apply per link; with no active fault the
    per-hop times sum to the analytic transit, so timing is unchanged.
    Lost transmissions retry with bounded exponential backoff
    ([simulator.msg_retries] / [simulator.msg_drops] counters and the
    [simulator.retry_backoff] histogram; {!Events.Msg_retry} and
    {!Events.Msg_dropped} in the stream).  A permanent fault (fail-stop
    processor, uncut link) triggers two-phase degraded-mode recovery:
    the survivors halt [detect_delay] after the fault, the completed
    iteration prefix becomes the checkpoint, {!Cyclo.Degrade.replan}
    derives a schedule for the surviving machine, migration cost is
    charged, and the remaining iterations replay on the degraded
    machine ({!Events.Degraded} marks the resume).  The run never
    deadlocks under faults — instances whose inputs were lost are
    reported in [stats.faults] instead.  Every draw is a deterministic
    hash of [(seed, message, transmission)], so a fault run replays
    byte-identically for a fixed seed (pinned by test).
    @raise Invalid_argument when the schedule is incomplete, illegal, the
    topology size differs from the schedule's processor count,
    [iterations < 1], the fault scenario fails {!Faults.validate}, or
    [faults] is combined with {!Wormhole} transport. *)

val static_bound : Cyclo.Schedule.t -> iterations:int -> int
(** The makespan the static schedule promises:
    [(iterations - 1) * length + max CE]. *)

val slowdown : stats -> Cyclo.Schedule.t -> float
(** [average_period / schedule length] — 1.0 means the execution
    sustains the static rate; above 1.0 means (contention) stalls. *)

val pp_stats : Format.formatter -> stats -> unit
