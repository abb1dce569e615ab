(** A profile of one run: its {!Trace} spans with the {!Counters},
    {!Histogram} and {!Resource} readings of the same window, exported
    as one Chrome [trace_event] document.  This is what [ccsched
    --profile] writes and [--metrics] prints from. *)

val enable : unit -> unit
(** Turn on the spans switch ({!Trace.enable}) and the metrics switch
    ({!Counters.enable}), each starting a fresh collection. *)

val disable : unit -> unit
(** Publish a last process sample into the counters
    ({!Resource.refresh_process_gauges}), then turn both switches off.
    Everything collected stays readable. *)

val to_chrome_json : unit -> string
(** The current collection as Chrome [trace_event] JSON (object format),
    loadable in [chrome://tracing] and {{:https://ui.perfetto.dev}
    Perfetto}.  Every span becomes a complete ([ph = "X"]) event with
    microsecond [ts]/[dur], its domain as [tid] and its args attached.
    Top-level objects that trace viewers ignore and scripts can read
    back: ["counters"] ({!Counters.dump}), ["histograms"]
    ({!Histogram.dump}, as [(upper_bound, count)] bucket lists; left
    out when no histogram is registered) and ["resources"]
    ({!Resource.rollup_json}). *)
