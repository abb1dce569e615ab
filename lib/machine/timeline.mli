(** Derived views of a recorded execution — what actually ran, drawn.

    Where {!Cyclo.Export.to_svg} draws the {e static} schedule (one
    iteration, the promise), these render the {!Events} stream of a real
    {!Simulator.execute} run: every instance where and when it actually
    started, every message as an arrow from send to delivery, every
    stall as a red marker on the lane that waited.  Comparing the two
    pictures is the fastest way to see where an execution diverges from
    its schedule. *)

val to_svg :
  ?label:(int -> string) ->
  ?px_per_step:int ->
  np:int ->
  Events.event list ->
  string
(** Executed-run Gantt chart: one horizontal lane per processor
    ([np] lanes), x = virtual control steps.  Instance boxes span their
    measured start..finish, message arrows run from the sending lane at
    send time to the receiving lane at delivery time, and stalls are
    drawn as translucent red spans covering the wait.  [label] maps node
    ids to names (default ["n<id>"]); [px_per_step] scales the time
    axis (default 8). *)

val to_chrome_json : ?label:(int -> string) -> np:int -> Events.event list -> string
(** The run as Chrome [trace_event] JSON on the {e virtual} clock — one
    timestamp unit per control step.  Each processor becomes a named
    thread of instance slices, messages share one extra ["network"]
    lane (send to delivery, volume and route endpoints in [args]), and
    stalls appear as instant events on the lane that waited.  Loadable
    in [chrome://tracing] / Perfetto next to the wall-clock traces from
    {!Obs.Profile.to_chrome_json}. *)
