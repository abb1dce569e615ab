(** One switchable collection of items recorded into per-domain streams:
    the core that {!Trace} spans and {!Journal} events share.

    A collection is {b off} until {!enable}; while off, {!record} and
    {!enabled} cost one atomic load and allocate nothing.  While on,
    each OCaml domain appends to its own stream with no lock on the hot
    path: a stream registers itself lazily on its first use in a
    collection, and {!items} merges the streams in (domain tag,
    per-domain sequence) order, a deterministic function of the
    recorded data, never of timing.  Read the items only once the
    recorded work has joined: items of still-running domains, and
    regions still open, are not merged. *)

type 'a t

val create : unit -> 'a t
(** A new collection, off. *)

val enabled : 'a t -> bool

val enable : 'a t -> unit
(** Drop every recorded item, then start recording: domain tags and
    sequence numbers restart at 0. *)

val disable : 'a t -> unit
(** Stop recording.  Recorded items stay readable. *)

val reset : 'a t -> unit
(** Drop every recorded item without changing the switch. *)

val record : 'a t -> 'a -> unit
(** Append an item to the calling domain's stream, at the next
    sequence number.  A no-op while the collection is off. *)

val region :
  'a t -> close:(domain:int -> seq:int -> depth:int -> 'a) -> (unit -> 'b) -> 'b
(** [region t ~close f] runs [f ()] as one nested region of the calling
    domain's stream; call it only while {!enabled}.  The region takes
    its sequence number when it opens, so regions merge in begin order,
    and [depth] counts the regions open around it in this domain ([0] =
    root).  When [f] returns or raises, the item [close ~domain ~seq
    ~depth] is recorded, unless the collection was restarted
    ({!enable}, {!reset}) while [f] ran: then the region is dropped. *)

val items : 'a t -> 'a list
(** Every item of the current collection, merged across domains in
    (domain tag, sequence) order. *)
