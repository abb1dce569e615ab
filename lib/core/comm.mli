(** Communication cost model seen by the scheduler.

    Abstracting over {!Topology.t} lets the same scheduling code run
    communication-obliviously (the classical baselines) or with inflated
    costs (ablations), while production use plugs in a real topology. *)

type t

val of_topology : Topology.t -> t
(** Store-and-forward: [cost src dst volume = hops * volume]
    (paper Definition 3.5). *)

val wormhole : Topology.t -> t
(** Wormhole (pipelined cut-through) transport:
    [cost src dst volume = hops + volume - 1] — the header pays the path
    latency once and the body streams one flit per step behind it.
    Never more expensive than store-and-forward
    ([h + v - 1 <= h * v] for [h, v >= 1]).  The paper fixes
    store-and-forward; this model shows the technique generalises
    (bench A12). *)

(** How a message crosses the network: the transport knob of a
    scheduling request and of a simulation. *)
type transport =
  | Store_and_forward  (** {!of_topology}, the paper's model *)
  | Wormhole  (** {!wormhole} *)

val of_transport : transport -> Topology.t -> t
(** The cost model of a transport on a machine.  The request spec
    ({!Cachekey.instance}) and the simulator's hops and wormhole windows
    both price transfers with it. *)

val zero : n:int -> name:string -> t
(** [n] processors, all communication free — the model implicitly assumed
    by communication-oblivious schedulers.
    @raise Invalid_argument if [n <= 0]. *)

val scaled : Topology.t -> factor:int -> t
(** Topology costs multiplied by a factor (ablation: slower links).
    @raise Invalid_argument if [factor < 0]. *)

val uniform : n:int -> latency:int -> name:string -> t
(** Every distinct pair costs [latency * volume] — an idealised crossbar
    with non-zero link time.
    @raise Invalid_argument if [n <= 0] or [latency < 0]. *)

val custom : n:int -> name:string -> (int -> int -> int -> int) -> t
(** Arbitrary cost function [src dst volume] (only consulted for
    [src <> dst]).  The schedulers require the cost to be non-negative
    and (for sensible fuel bounds) monotone in [volume]; linearity is
    {e not} assumed.  @raise Invalid_argument if [n <= 0]. *)

val n_processors : t -> int
val name : t -> string

val cost : t -> src:int -> dst:int -> volume:int -> int
(** 0 whenever [src = dst].
    @raise Invalid_argument on out-of-range processors or negative
    volume. *)

val hops : t -> src:int -> dst:int -> int
(** The cost of shipping unit volume: the exact topology hop distance
    for the store-and-forward ({!of_topology}) and wormhole models, the
    scaled distance for {!scaled}, the latency for {!uniform}, 0 for
    {!zero} — an effective distance used by decision-provenance events
    and link-traffic analytics.  0 whenever [src = dst].
    @raise Invalid_argument on out-of-range processors. *)
