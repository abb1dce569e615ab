(** The [ccsched-rpc/1] wire protocol.

    One request per line, one reply per line, both JSON objects —
    newline-delimited JSON over a Unix-domain stream socket.  Every
    request carries the protocol version in ["rpc"] and a client-chosen
    non-negative integer ["id"] that the reply echoes, so clients may
    pipeline requests and match replies by id (the server answers in
    request order).  The full reference with examples lives in
    [docs/service.md]; this module is the single
    serialisation/deserialisation point shared by the server, the
    client and the tests. *)

val version : string
(** ["ccsched-rpc/1"].  Requests carrying any other value are refused
    with error code [version]: the suffix is a major version, bumped
    only on incompatible changes; additive fields do not bump it. *)

type graph_spec =
  | Workload of string  (** a built-in workload name, e.g. ["fig7"] *)
  | Inline of string  (** a full [.csdfg] text, newlines escaped in JSON *)

type knobs = Cyclo.Cachekey.knobs = {
  mode : Cyclo.Remap.mode;
  passes : int option;
  speeds : int array option;
  slowdown : int;
  transport : Cyclo.Cachekey.transport;
  deadline_ms : int option;
      (** server-side computation budget; default: the daemon's
          [--default-deadline], or none *)
}
(** The request spec of {!Cyclo.Cachekey}, re-exported. *)

val default_knobs : knobs

type request =
  | Schedule of { graph : graph_spec; arch : string; knobs : knobs }
  | Replan of {
      session : string;
      fail_pes : int list;  (** 1-based, as everywhere user-facing *)
      fail_links : (int * int) list;  (** 1-based endpoint pairs *)
      deadline_ms : int option;  (** as in {!knobs} *)
    }
  | Stats
  | Metrics
      (** scrape the live telemetry registries; the reply body is
          Prometheus text exposition v0.0.4 (see {!Obs.Exposition}) *)
  | Health
  | Shutdown

type err = {
  code : string;
  message : string;
  retry_after_ms : int option;
      (** only on [overloaded]: suggested client backoff before
          retrying, from the daemon's own service-time estimate *)
  best_length : int option;
      (** only on [deadline_exceeded]: length of the best legal
          schedule found before the budget expired, when the search got
          far enough to have one *)
}
(** [code] is one of the stable machine-readable identifiers documented
    in [docs/service.md]: [parse], [version], [bad_request],
    [bad_graph], [unknown_session], [replan_failed],
    [deadline_exceeded], [overloaded], [too_large], [internal].  The two hint fields
    are additive ccsched-rpc/1 extensions serialised only when set, so
    every pre-existing error reply keeps its exact bytes. *)

val err :
  ?retry_after_ms:int -> ?best_length:int -> string -> string -> err
(** [err code message] with both hints defaulting to [None]. *)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  capacity : int;
  requests : int;
}

type health = {
  build : string;  (** server build identifier, e.g. ["ccsched/1.0.0"] *)
  uptime_ns : int;
  rpc_requests : int;  (** total requests handled since start *)
  hit_rate : float;  (** cache hits / (hits + misses), [0.] before any *)
  cache_entries : int;
  cache_capacity : int;
  queue_depth : int;  (** requests in the last drained batch *)
  active_clients : int;
  last_replan : string;
      (** ["none"], ["patched"], ["rebuilt"] or ["failed"] *)
  rss_bytes : int;  (** daemon resident set size, bytes *)
  peak_rss_bytes : int;  (** resident high-water mark, bytes *)
  heap_words : int;  (** OCaml major heap, words *)
  gc_minor_collections : int;  (** cumulative; rates come from deltas *)
  gc_major_collections : int;
      (** All five are additive ccsched-rpc/1 extensions: absent in a
          reply from an older daemon, they parse as [0]. *)
}

val exposition_content_type : string
(** ["text/plain; version=0.0.4"] — echoed in every metrics reply. *)

type reply =
  | Scheduled of {
      id : int;
      session : string;  (** the content-addressed cache key *)
      cached : bool;
      length : int;
      passes : int;
      schedule_json : string;
          (** the exact [ccsched export -f json] object, embedded raw *)
    }
  | Replanned of {
      id : int;
      session : string;  (** key of the replanned schedule *)
      cached : bool;
      strategy : string;  (** ["patched"] or ["rebuilt"] *)
      migration_cost : int;
      moved : int;
      length : int;
      surviving : int;  (** processors left in the degraded machine *)
      schedule_json : string;  (** schedule over the degraded machine *)
    }
  | Stats_reply of { id : int; stats : stats }
  | Metrics_reply of { id : int; body : string }
      (** [body] is the exposition payload; on the wire it is a JSON
          string next to a ["content_type"] field *)
  | Health_reply of { id : int; health : health }
  | Shutdown_ack of { id : int }
  | Error_reply of { id : int option; err : err }

val parse_request : string -> (int * request * bool, int option * err) result
(** Parse one request line.  [Ok (id, request, traced)] on success,
    where [traced] reflects the optional boolean ["trace"] field
    (default [false]) asking the server to append a span breakdown to
    the reply; [Error] carries the echoable id (when one could be
    recovered) and the error to reply with.  Never raises. *)

val parse_knobs : Obs.Json.t -> (knobs, err) result
(** The knob fields of a request or journal object — absent fields take
    their defaults — checked by {!Cyclo.Cachekey.validate}.  The one
    JSON decoder of the knobs. *)

val add_knobs : Buffer.t -> knobs -> unit
(** Append the knobs that differ from {!default_knobs} as
    [,"field":value] pairs, in a fixed order.  The one JSON encoder of
    the knobs. *)

val request_to_json : ?trace:bool -> id:int -> request -> string
(** One line, no trailing newline — what a client sends.
    [~trace:true] adds the ["trace":true] field. *)

val reply_to_json : reply -> string
(** One line, no trailing newline — what the server sends. *)

val with_trace : string -> (string * int) list -> string
(** [with_trace line spans] splices [,"trace":[{"span":...,"ns":...}...]]
    into a serialised reply, just before the closing brace.  A traced
    reply is byte-identical to its untraced form up to that suffix —
    the contract the two-client trace test pins. *)

val parse_reply : string -> (reply, string) result
(** Client-side reply decoding.  Never raises. *)

val json_escape : string -> string
(** {!Obs.Json.Writer.escape}: the tree's one JSON string escaper. *)
