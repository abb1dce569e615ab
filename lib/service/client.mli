(** A blocking client for the [ccsched-rpc/1] service.

    Wraps one Unix-domain connection; used by [ccsched client], the
    bench closed-loop driver and the tests.  Error cases are split so
    the CLI can keep its exit-code discipline: a connection that cannot
    be established is a usage problem (exit 2), while a peer that
    vanishes or answers garbage mid-conversation is malformed input
    from the network (exit 3) — see [docs/cli.md]. *)

type t

type error =
  | Connect_failed of string  (** could not reach the socket — exit 2 *)
  | Disconnected  (** peer closed mid-conversation — exit 3 *)

val error_to_string : error -> string

val connect : string -> (t, error) result
(** Connect to a server's socket path ([Connect_failed] on any error). *)

val close : t -> unit

val rpc_line : t -> string -> (string, error) result
(** Send one serialised request line (no newline) and block for the raw
    reply line; {!Protocol.parse_reply} decodes it. *)

(** {2 Transport-level retries}

    [ccsched client --retry N] speaks through a {!retrying} handle:
    [Connect_failed] and [Disconnected] — the transport saying nothing
    definitive happened — are retried with jittered exponential
    backoff, while any reply that parses (including typed server errors
    such as [overloaded] or [deadline_exceeded]) is definitive and
    returned as is.  Resending after an ambiguous disconnect is safe
    because the service is idempotent: the cache is content-addressed,
    so a duplicate can only turn a miss into a hit. *)

val backoff_delays : retries:int -> seed:int -> float list
(** The deterministic backoff schedule: delay [i] is drawn from
    [0.05s * 2^i * [0.5, 1.0)], jittered by a seeded LCG (not
    [Random], whose global state is left untouched). *)

type retrying

val retrying :
  ?sleep:(float -> unit) -> retries:int -> seed:int -> string -> retrying
(** A lazily-connecting handle on a socket path; the connection is
    (re-)established on demand by {!retrying_rpc_line}.  [sleep]
    (default [Unix.sleepf]) is injectable so tests run instantly. *)

val retrying_rpc_line : retrying -> string -> (string, error) result
(** {!rpc_line} with up to [retries] transport retries; the error after
    the budget is exhausted is the last transport error seen. *)

val retrying_attempts : retrying -> int
(** Total retries performed over the handle's lifetime. *)

val retrying_close : retrying -> unit
