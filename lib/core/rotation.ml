module Csdfg = Dataflow.Csdfg

type t = {
  rotated : int list;
  previous_length : int;
  base : Schedule.t;
  fallback : (int * Schedule.entry) list;
}

let c_rotations = Obs.Counters.counter "rotation.rotations"
let c_nodes_rotated = Obs.Counters.counter "rotation.nodes_rotated"
let c_fallbacks = Obs.Counters.counter "rotation.fallbacks_applied"

(* Retiming J by one draws a delay from each edge entering J from
   outside and pushes one onto each edge leaving it, so only J's
   in-edges can turn negative. *)
let start sched =
  Obs.Trace.with_span "rotation.start" @@ fun () ->
  let dfg = Schedule.dfg sched in
  if Schedule.n_assigned sched = 0 then Error "empty schedule"
  else begin
    match Schedule.first_row sched with
    | [] -> Error "no node starts at row 1 (schedule not normalized)"
    | rotated ->
        let retimed = Schedule.retime sched rotated in
        if
          List.exists
            (fun v ->
              List.exists
                (fun e -> Schedule.delay retimed e < 0)
                (Csdfg.pred dfg v))
            rotated
        then Error "rotation would create a negative delay (illegal schedule?)"
        else begin
          let previous_length = Schedule.length sched in
          let fallback =
            List.map
              (fun v ->
                ( v,
                  { Schedule.cb = previous_length; pe = Schedule.pe sched v } ))
              rotated
          in
          let base =
            Schedule.unassign_all retimed rotated |> Schedule.shift_up
          in
          Obs.Counters.incr c_rotations;
          Obs.Counters.incr c_nodes_rotated ~by:(List.length rotated);
          if Obs.Journal.enabled () then
            Obs.Journal.record (Obs.Journal.Rotated { nodes = rotated });
          Ok { rotated; previous_length; base; fallback }
        end
  end

let apply_fallback t =
  Obs.Counters.incr c_fallbacks;
  let sched =
    List.fold_left
      (fun s (v, { Schedule.cb; pe }) -> Schedule.assign s ~node:v ~cb ~pe)
      t.base t.fallback
  in
  Schedule.set_length sched
    (max (Timing.required_length sched) (Schedule.rows_needed sched))
