module Csdfg = Dataflow.Csdfg
module G = Digraph.Graph

let edge_cost sched (e : Csdfg.attr G.edge) =
  Comm.cost (Schedule.comm sched) ~src:(Schedule.pe sched e.G.src)
    ~dst:(Schedule.pe sched e.G.dst) ~volume:(Csdfg.volume e)

let edge_ok sched (e : Csdfg.attr G.edge) =
  let m = edge_cost sched e in
  Schedule.cb sched e.G.dst + (Schedule.delay sched e * Schedule.length sched)
  >= Schedule.ce sched e.G.src + m + 1

let ceil_div a b = if a >= 0 then (a + b - 1) / b else a / b

let psl ~cost ~ce ~cb ~delay = ceil_div (cost + ce - cb + 1) delay

let end_row sched v (s : Schedule.entry) =
  s.cb + Schedule.duration sched ~node:v ~pe:s.pe - 1

(* One Schedule.entry per endpoint: required_length runs this over
   every delayed edge, twice a compaction pass. *)
let psl_edge sched (e : Csdfg.attr G.edge) =
  let delay = Schedule.delay sched e in
  if delay = 0 then None
  else
    match (Schedule.entry sched e.G.src, Schedule.entry sched e.G.dst) with
    | Some s, Some t ->
        let cost =
          Comm.cost (Schedule.comm sched) ~src:s.pe ~dst:t.pe
            ~volume:(Csdfg.volume e)
        in
        Some (max 0 (psl ~cost ~ce:(end_row sched e.G.src s) ~cb:t.cb ~delay))
    | _ -> None

let required_length sched =
  List.fold_left
    (fun acc e ->
      match psl_edge sched e with None -> acc | Some l -> max acc l)
    (Schedule.rows_needed sched)
    (Csdfg.edges (Schedule.dfg sched))

let zero_delay_violations sched =
  List.filter
    (fun e ->
      Schedule.delay sched e = 0
      && Schedule.is_assigned sched e.G.src
      && Schedule.is_assigned sched e.G.dst
      && not (edge_ok sched e))
    (Csdfg.edges (Schedule.dfg sched))

type placed = { pe : int; row : int; delay : int; volume : int }

let anticipation comm ~pe ~target_length preds =
  List.fold_left
    (fun acc (u : placed) ->
      let m = Comm.cost comm ~src:u.pe ~dst:pe ~volume:u.volume in
      max acc (m + u.row + 1 - (u.delay * target_length)))
    1 preds
