(** Crash-safe warm-restart journal for the scheduling daemon.

    [serve --state DIR] keeps [DIR/state.ccsj]: a magic header followed
    by length-prefixed, CRC32-checksummed records, appended as the
    engine commits cache entries.  Records are {e derivations}, not
    dumps: a schedule record stores the request that produced the entry
    (content-addressed by its {!Cyclo.Cachekey} digest) plus the exact
    reply bytes, and a replan record stores its parent key and fault
    set — so replay rebuilds the cache index byte-identically, and the
    deterministic scheduler can lazily re-derive the in-memory
    schedule/topology of any entry a later replan chains on.

    Torn tails are expected, not fatal: the journal is appended without
    fsync-per-record, and a daemon killed mid-append leaves a partial
    record.  {!open_} replays until the first short, checksum-failing
    or undecodable record, truncates the file back to the last good
    boundary, and reports how many bytes were dropped.  Appending the
    same key twice is idempotent at replay (last record wins in the
    LRU), which is what makes the append-only discipline safe without
    any in-place updates.

    A periodic {!compact} (driven by the engine once the journal holds
    more appended records than live cache entries warrant) rewrites the
    current entries into a fresh file and renames it over the old one —
    the only non-append mutation, and atomic at the filesystem level. *)

type sched_record = {
  s_key : string;  (** {!Cyclo.Cachekey.digest} of the request *)
  s_graph : Protocol.graph_spec;
  s_arch : string;
  s_knobs : Protocol.knobs;  (** [deadline_ms] is stripped on append *)
  s_length : int;
  s_passes : int;
  s_schedule_json : string;  (** exact reply bytes of the schedule object *)
}

type replan_record = {
  r_key : string;  (** {!Cyclo.Cachekey.replan_digest} *)
  r_parent : string;  (** session the replan chained on *)
  r_fail_pes : int list;  (** 1-based, as on the wire *)
  r_fail_links : (int * int) list;
  r_length : int;
  r_strategy : string;
  r_migration_cost : int;
  r_moved : int;
  r_surviving : int;
  r_schedule_json : string;
}

type record = Sched of sched_record | Replan of replan_record

val key : record -> string
(** The record's cache key: [s_key] or [r_key]. *)

type t

val open_ : dir:string -> (t * record list * int, string) result
(** Open (creating [dir] and the journal as needed) and replay.
    [Ok (t, records, dropped_bytes)] returns the good records in append
    order and how many trailing bytes were truncated as torn or
    corrupt; the file is left ready for {!append}.  [Error] only when
    the directory or file cannot be created/opened — corruption is
    never an error, it is data loss already paid for. *)

val append : t -> record -> unit
(** Append one framed record.  Write errors (disk full, etc.) disable
    the journal for the rest of the run rather than failing the
    request: the daemon degrades to the no-[--state] behaviour.  A
    record whose payload is over the 64 MiB bound that replay enforces
    is skipped, since replay would truncate it and every later record;
    {!compact} skips it too. *)

val appended : t -> int
(** Records appended (not replayed) since {!open_} or the last
    {!compact} — the engine's compaction trigger. *)

val compact : t -> record list -> unit
(** Atomically replace the journal with exactly [records] (tmp file +
    rename).  Resets {!appended} to 0. *)

val close : t -> unit

val path : t -> string
(** The journal file path, [DIR/state.ccsj]. *)

(** {2 Exposed for tests and the chaos harness} *)

val magic : string
(** The file header, ["ccsched-state/1\n"]. *)

val crc32 : string -> int32
(** CRC-32 (IEEE 802.3, the zlib polynomial) of a string. *)

val encode_record : record -> string
(** The full framed bytes of one record: 4-byte big-endian payload
    length, 4-byte big-endian CRC32 of the payload, then the payload
    (one JSON object, no newline). *)

val decode_payload : string -> (record, string) result
(** Decode one record payload (the JSON object between frames). *)
