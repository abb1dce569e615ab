(** A minimal JSON reader for the observability tooling.

    Just enough to load what this repository itself emits — schedule
    exports ([ccsched export -f json]), Chrome trace profiles,
    [BENCH_sched.json] and [BENCH_history.jsonl] records — without
    adding a dependency.  Numbers are parsed as floats (every emitter
    here stays within double precision); strings support the standard
    escapes with BMP [\u] sequences decoded to UTF-8. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Parse one JSON value spanning the whole input (surrounding
    whitespace allowed).  Errors carry a character offset. *)

(** {2 Accessors}

    All total: wrong shapes yield [None]. *)

val member : string -> t -> t option
(** First binding of the key in an object. *)

val to_num : t -> float option
val to_int : t -> int option
val to_str : t -> string option
val to_list : t -> t list option

(** {2 Buffered writing}

    The emitting half: tiny [Buffer] combinators shared by every JSONL
    exporter in the tree ({!Log} lines, simulator event dumps, journal
    dumps, bench snapshots).  The point is the discipline they make
    easy — render a whole line into one [Buffer] and flush it with a
    single write — rather than per-field [Printf] round-trips, which
    thrash on 10{^5}-event scale-tier dumps.  [add_int] writes digits
    directly (no [string_of_int] allocation); [add_escaped] only takes
    the escaping slow path when a first scan finds a byte that needs
    it. *)

module Writer : sig
  val add_int : Buffer.t -> int -> unit
  (** Decimal rendering straight into the buffer; handles [min_int]. *)

  val add_float : Buffer.t -> float -> unit
  (** Integral values (within 2{^53}) print without a decimal point,
      everything else as [%.17g] (round-trip precision). *)

  val add_escaped : Buffer.t -> string -> unit
  (** String contents with JSON escapes, no surrounding quotes: quote
      and backslash, the short escapes for newline, carriage return and
      tab, and a [u00XX] escape for every other byte below 0x20, so the
      output is valid JSON whatever the input.  The one JSON string
      escaper of the tree. *)

  val escaped_length : string -> int
  (** The number of bytes {!add_escaped} writes for a string, without
      allocating — for presizing buffers. *)

  val escape : string -> string
  (** {!add_escaped} as a string; returns its argument itself when
      nothing needs escaping. *)

  val add_str : Buffer.t -> string -> unit
  (** ["..."] — quoted, escaped. *)

  val add_key : Buffer.t -> string -> unit
  (** ["...":] — a quoted key and its colon. *)

  val add_field_int : Buffer.t -> string -> int -> unit
  (** ["k":v] for an int field (no separating comma). *)

  val add_field_str : Buffer.t -> string -> string -> unit
  (** ["k":"v"] for a string field (no separating comma). *)
end
