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
  let pe_of v = (List.assoc v rot.fallback).Schedule.pe in
  List.sort
    (fun a b ->
      match compare (pe_of a) (pe_of b) with 0 -> compare a b | c -> c)
    rot.rotated

(* Tie-break: communication this placement adds against already-assigned
   neighbours — prefer processors close to the node's producers and
   consumers. *)
let adjacent_comm sched v pe =
  let dfg = Schedule.dfg sched in
  let comm = Schedule.comm sched in
  let one acc (other, volume) =
    if Schedule.is_assigned sched other && other <> v then
      acc + Comm.cost comm ~src:(Schedule.pe sched other) ~dst:pe ~volume
    else acc
  in
  let ins = List.map (fun e -> (e.G.src, Csdfg.volume e)) (Csdfg.pred dfg v) in
  let outs = List.map (fun e -> (e.G.dst, Csdfg.volume e)) (Csdfg.succ dfg v) in
  List.fold_left one 0 (ins @ outs)

let ceil_div a b = if a >= 0 then (a + b - 1) / b else a / b

(* Table length this placement would force: the rows the node occupies
   and the projected schedule length (Lemma 4.3) of every delayed edge
   against its already-assigned endpoints.  Minimising this, rather than
   the raw control step, is what lets long serial chains pipeline instead
   of re-queueing behind their old processor. *)
let placement_pressure sched v pe cs =
  let dfg = Schedule.dfg sched in
  let comm = Schedule.comm sched in
  let ce = cs + Schedule.duration sched ~node:v ~pe - 1 in
  let from_in acc (e : Csdfg.attr G.edge) =
    let u = e.G.src in
    let d = Schedule.delay sched e in
    if u = v || d = 0 || not (Schedule.is_assigned sched u) then acc
    else begin
      let m =
        Comm.cost comm ~src:(Schedule.pe sched u) ~dst:pe
          ~volume:(Csdfg.volume e)
      in
      max acc (ceil_div (m + Schedule.ce sched u - cs + 1) d)
    end
  in
  let from_out acc (e : Csdfg.attr G.edge) =
    let w = e.G.dst in
    let d = Schedule.delay sched e in
    if w = v || d = 0 || not (Schedule.is_assigned sched w) then acc
    else begin
      let m =
        Comm.cost comm ~src:pe ~dst:(Schedule.pe sched w)
          ~volume:(Csdfg.volume e)
      in
      max acc (ceil_div (m + ce - Schedule.cb sched w + 1) d)
    end
  in
  let self acc (e : Csdfg.attr G.edge) =
    if e.G.src = v && e.G.dst = v && Schedule.delay sched e > 0 then
      max acc
        (ceil_div
           (Schedule.duration sched ~node:v ~pe)
           (Schedule.delay sched e))
    else acc
  in
  let p = List.fold_left from_in ce (Csdfg.pred dfg v) in
  let p = List.fold_left from_out p (Csdfg.succ dfg v) in
  List.fold_left self p (Csdfg.succ dfg v)

let place_node ~scoring ~limit ~target sched v =
  let np = Schedule.n_processors sched in
  let candidate pe =
    let span = Schedule.duration sched ~node:v ~pe in
    let an = Timing.earliest_start sched ~node:v ~pe ~target_length:target in
    let cs = Schedule.first_free_slot sched ~pe ~from:an ~span in
    match limit with
    | Some l when cs + span - 1 > l -> None
    | Some _ | None ->
        let primary =
          match scoring with
          | Pressure_first -> placement_pressure sched v pe cs
          | Earliest_step -> 0
        in
        Some (primary, cs, adjacent_comm sched v pe, pe)
  in
  let candidates = List.filter_map candidate (List.init np Fun.id) in
  match List.sort compare candidates with
  | [] -> None
  | (_, cs, _, pe) :: _ -> Some (Schedule.assign sched ~node:v ~cb:cs ~pe)

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
