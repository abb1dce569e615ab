(** Typed execution events — the simulator's flight recorder.

    {!Simulator.execute} optionally records everything that happens
    during a run as a stream of typed events on the {e virtual} clock
    (control steps, time 0 = the first step of iteration 0): instance
    starts and finishes, every cross-processor message from send
    through each link hop to delivery, and stalls — the moments where
    execution fell behind the static promise and why.

    Recording is strictly observational: a run with a recorder attached
    produces the same {!Simulator.stats} as one without, event by
    event (the test suite pins this).  The stream is what the derived
    views consume — {!Timeline} renders it, {!Audit} checks it against
    the static schedule — and what [ccsched simulate --events] writes
    as JSONL. *)

(** Why execution paused.  [wait] on the enclosing {!Stall} says for
    how long; the cause says on what. *)
type stall_cause =
  | Input_wait of { src : int; dst : int; msg : int }
      (** the instance waited on dataflow edge [src -> dst]; [msg] is
          the blocking message's id, or [-1] for a same-processor
          dependence *)
  | Link_busy of { link : int * int; msg : int }
      (** message [msg] queued behind (or, under wormhole, waited for)
          the directed physical link [link] *)
  | Pe_busy  (** inputs were ready but the processor was still running *)
  | Link_down of { link : int * int; msg : int }
      (** message [msg] reached a link inside an injected outage window
          and waits for it to reopen (fault runs only) *)

type event =
  | Instance_start of { t : int; node : int; iter : int; pe : int }
  | Instance_finish of { t : int; node : int; iter : int; pe : int }
  | Msg_send of {
      t : int;
      msg : int;  (** dense id, 0-based in send order *)
      src : int;  (** producer node *)
      dst : int;  (** consumer node *)
      src_iter : int;
      dst_iter : int;  (** [src_iter + edge delay] *)
      from_pe : int;
      to_pe : int;
      volume : int;
    }
  | Msg_hop of {
      t : int;  (** when the hop completed *)
      msg : int;
      link : int * int;  (** directed physical link traversed *)
      busy : int;
          (** how long the message occupied the link: [latency * volume]
              under store-and-forward, the whole reserved transfer
              window under wormhole *)
    }
  | Msg_deliver of {
      t : int;
      msg : int;
      node : int;  (** consumer node *)
      iter : int;
      latency : int;  (** [t - send time] *)
    }
  | Stall of {
      t : int;
      node : int;  (** the delayed consumer instance *)
      iter : int;
      pe : int;
      wait : int;
          (** for instance stalls ({!Input_wait} / {!Pe_busy}): the slip
              vs the static promise [CB + k*L]; for {!Link_busy} /
              {!Link_down}: the time spent waiting for the link *)
      cause : stall_cause;
    }
  | Msg_retry of {
      t : int;
      msg : int;
      link : int * int;
      attempt : int;  (** 1-based failed-attempt count on this hop *)
      backoff : int;  (** control steps until the retry *)
    }  (** a transmission was lost on a lossy link and will be retried *)
  | Msg_dropped of { t : int; msg : int; link : int * int; attempts : int }
      (** the per-hop retry bound was exhausted; the message is gone and
          its consumer instance will never run *)
  | Pe_fail of { t : int; pe : int }  (** injected fail-stop *)
  | Link_fail of { t : int; link : int * int; until : int option }
      (** injected link outage; [None] = permanent *)
  | Degraded of {
      t : int;  (** degraded-mode resume time *)
      survivors : int list;  (** original processor ids still alive *)
      moved : int;  (** nodes remapped off their original processor *)
      migration_cost : int;
      length : int;  (** degraded schedule's table length *)
    }  (** the run switched to the degraded schedule *)

val time : event -> int

(** {2 Recording} *)

type recorder
(** A per-run append-only buffer.  Not thread-safe — one recorder per
    {!Simulator.execute} call (the simulator is sequential). *)

val recorder : unit -> recorder
val record : recorder -> event -> unit
val count : recorder -> int

val events : recorder -> event list
(** Everything recorded, in recording order.  Event times are
    non-decreasing except for {!Instance_start}s, which the simulator
    commits as soon as the start time is {e known} (possibly ahead of
    the virtual clock); use {!by_time} for a chronological view. *)

val by_time : event list -> event list
(** Stable sort by {!time} — same-time events keep recording order. *)

(** {2 Derived tallies} *)

val deliveries : event list -> int
val hops : event list -> int
val stalls : event list -> int
val retries : event list -> int
val drops : event list -> int

(** {2 Export} *)

val to_jsonl : event list -> string
(** One JSON object per line.  The first line is a header
    [{"schema": "ccsched-sim-events/2", "events": N}]; every following
    line carries an ["ev"] discriminator
    ([instance_start], [instance_finish], [msg_send], [msg_hop],
    [msg_deliver], [stall], [msg_retry], [msg_dropped], [pe_fail],
    [link_fail], [degraded]) plus the event's fields under the names
    used above (links and edges flattened to ["a"]/["b"] and
    ["src"]/["dst"]; a permanent outage's ["until"] is [-1]).  Events
    are emitted in {!by_time} order.  Schema /2 extends /1 with the
    fault-run kinds and the [link_down] stall cause; fault-free streams
    differ from /1 only in the header. *)
