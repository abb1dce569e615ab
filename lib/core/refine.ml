module Csdfg = Dataflow.Csdfg
module G = Digraph.Graph

type result = {
  initial : Schedule.t;
  best : Schedule.t;
  moves_tried : int;
  moves_accepted : int;
  improvements : int;
}

(* Feasible start-step window for node [v] on processor [pe] given every
   other node's placement: zero-delay in-edges force a lower bound,
   zero-delay out-edges an upper bound.  Delayed edges only influence
   the required table length, which the acceptance test covers. *)
let window sched v pe =
  let dfg = Schedule.dfg sched in
  let comm = Schedule.comm sched in
  let dur = Schedule.duration sched ~node:v ~pe in
  let lo =
    List.fold_left
      (fun acc (e : Csdfg.attr G.edge) ->
        let u = e.G.src in
        if u = v || Schedule.delay sched e <> 0 then acc
        else begin
          let m =
            Comm.cost comm ~src:(Schedule.pe sched u) ~dst:pe
              ~volume:(Csdfg.volume e)
          in
          max acc (Schedule.ce sched u + m + 1)
        end)
      1 (Csdfg.pred dfg v)
  in
  let hi =
    List.fold_left
      (fun acc (e : Csdfg.attr G.edge) ->
        let w = e.G.dst in
        if w = v || Schedule.delay sched e <> 0 then acc
        else begin
          let m =
            Comm.cost comm ~src:pe ~dst:(Schedule.pe sched w)
              ~volume:(Csdfg.volume e)
          in
          min acc (Schedule.cb sched w - m - dur)
        end)
      max_int (Csdfg.succ dfg v)
  in
  (lo, hi)

let try_move rng sched =
  let dfg = Schedule.dfg sched in
  let n = Csdfg.n_nodes dfg in
  let v = Random.State.int rng n in
  let pe = Random.State.int rng (Schedule.n_processors sched) in
  let without = Schedule.unassign sched v in
  let lo, hi = window without v pe in
  if lo > hi then None
  else begin
    let dur = Schedule.duration sched ~node:v ~pe in
    let cs = Schedule.first_free_slot without ~pe ~from:lo ~span:dur in
    if cs > hi then None
    else if
      (* no-op move: same slot as before *)
      Schedule.pe sched v = pe && Schedule.cb sched v = cs
    then None
    else begin
      let moved = Schedule.assign without ~node:v ~cb:cs ~pe in
      let needed = Timing.required_length moved in
      let accepted = needed <= Schedule.length sched in
      if Obs.Journal.enabled () then
        Obs.Journal.record
          (Obs.Journal.Refine_move { node = v; cs; pe; accepted });
      if accepted then Some (Schedule.set_length moved needed) else None
    end
  end

let c_moves_tried = Obs.Counters.counter "refine.moves_tried"
let c_moves_accepted = Obs.Counters.counter "refine.moves_accepted"
let c_improvements = Obs.Counters.counter "refine.improvements"

let run ?(seed = 0) ?moves ?(validate = true) sched =
  Obs.Trace.with_span "refine.run" @@ fun () ->
  if not (Schedule.assigned_all sched) then
    invalid_arg "Refine.run: schedule has unassigned nodes";
  let initial =
    let s = Schedule.normalize sched in
    Schedule.set_length s (Timing.required_length s)
  in
  let budget =
    match moves with
    | Some m -> max 0 m
    | None -> 50 * Csdfg.n_nodes (Schedule.dfg sched)
  in
  let rng = Random.State.make [| seed; 0x5eed |] in
  let current = ref initial in
  let best = ref initial in
  let accepted = ref 0 in
  let improvements = ref 0 in
  for _ = 1 to budget do
    match try_move rng !current with
    | None -> ()
    | Some next ->
        if validate then Validator.assert_legal next;
        incr accepted;
        if Schedule.length next < Schedule.length !current then
          incr improvements;
        current := next;
        if Schedule.length next < Schedule.length !best then best := next
  done;
  Obs.Counters.incr c_moves_tried ~by:budget;
  Obs.Counters.incr c_moves_accepted ~by:!accepted;
  Obs.Counters.incr c_improvements ~by:!improvements;
  {
    initial;
    best = !best;
    moves_tried = budget;
    moves_accepted = !accepted;
    improvements = !improvements;
  }

let polish ?seed ?moves (r : Compaction.result) =
  let refined = run ?seed ?moves r.Compaction.best in
  if Schedule.length refined.best < Schedule.length r.Compaction.best then
    refined.best
  else r.Compaction.best

let alternate ?mode ?scoring ?(seed = 0) ?(rounds = 4) ?(validate = true) dfg
    comm =
  Obs.Trace.with_span "refine.alternate" @@ fun () ->
  let first = Compaction.run ?mode ?scoring ~validate dfg comm in
  let best = ref first.Compaction.best in
  let current = ref first.Compaction.best in
  (try
     for round = 1 to rounds do
       let refined = run ~seed:(seed + round) ~validate !current in
       let resumed =
         Compaction.resume ?mode ?scoring ~validate refined.best
       in
       let candidate = resumed.Compaction.best in
       if Schedule.length candidate < Schedule.length !best then
         best := candidate;
       (* stop when a whole round makes no progress *)
       if Schedule.compare_assignments candidate !current = 0 then raise Exit;
       current := candidate
     done
   with Exit -> ());
  !best
