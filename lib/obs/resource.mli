(** Where the memory went: a per-name rollup of the allocation that
    {!Trace} spans record, and process-level memory gauges.

    Every {!Trace.span} carries the allocation deltas of its own
    window — words allocated and promoted, collections run, top-heap
    growth — so {!aggregate} needs no switch of its own: it reads
    {!Trace.spans}, and is empty while tracing is off.

    The process-level half needs no enablement either: {!sample_process}
    reads current/peak RSS from [/proc/self/statm] and
    [/proc/self/status] (falling back to major-heap size off Linux) plus
    the cumulative GC totals, and {!refresh_process_gauges} publishes
    the sample into the {!Counters} registry ([process.*] gauges, [gc.*]
    totals) so the Prometheus exposition, [--metrics] and [ccsched top]
    see memory without new plumbing. *)

type rollup = {
  r_count : int;
  r_minor_words : int;
  r_promoted_words : int;
  r_major_words : int;
  r_minor_collections : int;
  r_major_collections : int;
  r_top_heap_words : int;
      (** the {e largest} single-span high-water growth, not a sum — heap
          growth is not additive across sequential spans *)
}

val aggregate : unit -> (string * rollup) list
(** Per-name allocation rollup of {!Trace.spans}, sorted by name.  Like
    {!Trace.aggregate}, nested spans are not subtracted from their
    parents. *)

type process_sample = {
  rss_bytes : int;  (** current resident set size *)
  peak_rss_bytes : int;  (** resident high-water mark ([VmHWM]) *)
  heap_words : int;  (** current major heap size *)
  p_top_heap_words : int;
  p_minor_words : int;  (** cumulative, since process start *)
  p_promoted_words : int;
  p_major_words : int;
  p_minor_collections : int;
  p_major_collections : int;
}

val sample_process : unit -> process_sample
(** One live reading; works whether or not collection is enabled.
    [peak_rss_bytes] never reads below the highest [rss_bytes] this
    process has sampled, even on the portable fallback path. *)

val refresh_process_gauges : unit -> unit
(** Publish {!sample_process} into the {!Counters} registry:
    [process.resident_memory_bytes], [process.peak_resident_memory_bytes],
    [gc.heap_words] and [gc.top_heap_words] as gauges; [gc.minor_words],
    [gc.promoted_words], [gc.major_words], [gc.minor_collections] and
    [gc.major_collections] as cumulative counters.  A no-op while the
    Counters registry is disabled.  {!Exposition.render} calls this
    before every scrape. *)

val rollup_json : unit -> string
(** The per-phase resource profile as one JSON object:
    [{"spans": [{"span": ..., "count": ..., "minor_words": ...,
    "promoted_words": ..., "major_words": ..., "minor_collections": ...,
    "major_collections": ..., "top_heap_words": ...}, ...],
    "process": {...}}] — the shape embedded under ["resources"] in
    [--profile] output by {!Profile.to_chrome_json}. *)

val pp_summary : Format.formatter -> unit -> unit
(** Human-readable table of {!aggregate}: one line per span name with
    count, words allocated and collections. *)
