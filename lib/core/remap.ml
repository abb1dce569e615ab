module Csdfg = Dataflow.Csdfg
module G = Digraph.Graph

type mode = Without_relaxation | With_relaxation

let pp_mode ppf = function
  | Without_relaxation -> Fmt.string ppf "without-relaxation"
  | With_relaxation -> Fmt.string ppf "with-relaxation"

type scoring = Pressure_first | Earliest_step

let pp_scoring ppf = function
  | Pressure_first -> Fmt.string ppf "pressure-first"
  | Earliest_step -> Fmt.string ppf "earliest-step"

type order = Forward | Reverse

let pp_order ppf = function
  | Forward -> Fmt.string ppf "forward"
  | Reverse -> Fmt.string ppf "reverse"

type outcome =
  | Remapped of Schedule.t
  | Fallback of Schedule.t
  | Stuck

let place_order (rot : Rotation.t) =
  (* base no longer holds J's processors, so read them off the fallback. *)
  List.map (fun (v, (e : Schedule.entry)) -> (e.pe, v)) rot.fallback
  |> List.sort (fun (p, a) (q, b) ->
         match Int.compare p q with 0 -> Int.compare a b | c -> c)
  |> List.map snd

type neighbourhood = {
  preds : Timing.placed list;
  succs : Timing.placed list;
  self_delay : int;
}

let neighbourhood sched v =
  let placed n (e : Csdfg.attr G.edge) ~row =
    Option.map
      (fun (s : Schedule.entry) ->
        { Timing.pe = s.pe; row = row s; delay = Schedule.delay sched e;
          volume = Csdfg.volume e })
      (Schedule.entry sched n)
  in
  let end_row u (s : Schedule.entry) =
    s.cb + Schedule.duration sched ~node:u ~pe:s.pe - 1
  in
  let self_delay = ref 0 in
  let preds =
    List.filter_map
      (fun (e : Csdfg.attr G.edge) ->
        let u = e.G.src in
        if u = v then None else placed u e ~row:(end_row u))
      (Csdfg.pred (Schedule.dfg sched) v)
  and succs =
    List.filter_map
      (fun (e : Csdfg.attr G.edge) ->
        let w = e.G.dst in
        if w <> v then placed w e ~row:(fun s -> s.cb)
        else begin
          let delay = Schedule.delay sched e in
          if delay > 0 && (!self_delay = 0 || delay < !self_delay) then
            self_delay := delay;
          None
        end)
      (Csdfg.succ (Schedule.dfg sched) v)
  in
  { preds; succs; self_delay = !self_delay }

(* Table length a placement at [cs .. ce] on [pe] would force: the rows
   the node occupies and the projected schedule length (Lemma 4.3) of
   every delayed edge against its already-assigned endpoints (a self
   loop's worst is its smallest delay).  Minimising this, rather than
   the raw control step, is what lets long serial chains pipeline
   instead of re-queueing behind their old processor. *)
let pressure comm nb ~pe ~cs ~span =
  let ce = cs + span - 1 in
  let psl acc ~src ~dst ~ce ~cb (n : Timing.placed) =
    if n.delay = 0 then acc
    else
      let cost = Comm.cost comm ~src ~dst ~volume:n.volume in
      max acc (Timing.psl ~cost ~ce ~cb ~delay:n.delay)
  in
  let from_pred acc (u : Timing.placed) =
    psl acc ~src:u.pe ~dst:pe ~ce:u.row ~cb:cs u
  in
  let from_succ acc (w : Timing.placed) =
    psl acc ~src:pe ~dst:w.pe ~ce ~cb:w.row w
  in
  let p = List.fold_left from_pred ce nb.preds in
  let p = List.fold_left from_succ p nb.succs in
  if nb.self_delay > 0 then
    max p (Timing.psl ~cost:0 ~ce ~cb:cs ~delay:nb.self_delay)
  else p

(* Tie-break: communication this placement adds against already-assigned
   neighbours, each priced as a transfer to [pe] — prefer processors
   close to the node's producers and consumers. *)
let added_comm comm nb ~pe =
  let transfer acc (n : Timing.placed) =
    acc + Comm.cost comm ~src:n.pe ~dst:pe ~volume:n.volume
  in
  List.fold_left transfer (List.fold_left transfer 0 nb.preds) nb.succs

(* One loop over the processors, keeping the best candidate so far as
   (pressure, step, added communication, processor).  A processor whose
   lower bound — step [AN], pressure [AN + t - 1] — already loses to the
   best, or already ends after [limit], is skipped before its slot
   search; added communication is priced only for a candidate that
   beats or ties the best on (pressure, step). *)
let place_node ~scoring ~limit ~target sched v =
  let comm = Schedule.comm sched in
  let nb = neighbourhood sched v in
  let fits row = match limit with Some l -> row <= l | None -> true in
  let best_pe = ref (-1) and best_p = ref max_int and best_cs = ref max_int in
  let best_comm = ref max_int in
  for pe = 0 to Schedule.n_processors sched - 1 do
    let span = Schedule.duration sched ~node:v ~pe in
    let an = Timing.anticipation comm ~pe ~target_length:target nb.preds in
    let least_p =
      match scoring with Pressure_first -> an + span - 1 | Earliest_step -> 0
    in
    let loses =
      least_p > !best_p || (least_p = !best_p && an > !best_cs)
    in
    if (not loses) && fits (an + span - 1) then begin
      let cs = Schedule.first_free_slot sched ~pe ~from:an ~span in
      if fits (cs + span - 1) then begin
        let p =
          match scoring with
          | Pressure_first -> pressure comm nb ~pe ~cs ~span
          | Earliest_step -> 0
        in
        if p < !best_p || (p = !best_p && cs <= !best_cs) then begin
          let c = added_comm comm nb ~pe in
          if p < !best_p || cs < !best_cs || c < !best_comm then begin
            best_pe := pe;
            best_p := p;
            best_cs := cs;
            best_comm := c
          end
        end
      end
    end
  done;
  if !best_pe < 0 then None
  else Some (Schedule.assign sched ~node:v ~cb:!best_cs ~pe:!best_pe)

let place_all ~scoring ~order ~limit ~target rot =
  let rec go sched = function
    | [] -> Some sched
    | v :: rest -> (
        match place_node ~scoring ~limit ~target sched v with
        | Some sched -> go sched rest
        | None -> None)
  in
  let nodes =
    match order with
    | Forward -> place_order rot
    | Reverse -> List.rev (place_order rot)
  in
  go rot.Rotation.base nodes

let finalize sched = Schedule.set_length sched (Timing.required_length sched)

let fallback_or_stuck rot =
  let fb = Rotation.apply_fallback rot in
  if Schedule.length fb <= rot.Rotation.previous_length then Fallback fb
  else Stuck

let run ?(scoring = Pressure_first) ?(order = Forward) mode (rot : Rotation.t) =
  let prev = rot.previous_length in
  let target = max 1 (prev - 1) in
  match mode with
  | With_relaxation -> (
      match place_all ~scoring ~order ~limit:None ~target rot with
      | Some sched -> Remapped (finalize sched)
      | None ->
          (* Unbounded search always finds a slot; kept for totality. *)
          fallback_or_stuck rot)
  | Without_relaxation -> (
      match place_all ~scoring ~order ~limit:(Some prev) ~target rot with
      | Some sched ->
          let sched = finalize sched in
          if Schedule.length sched <= prev then Remapped sched
          else fallback_or_stuck rot
      | None -> fallback_or_stuck rot)
