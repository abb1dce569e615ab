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

let psl_edge sched (e : Csdfg.attr G.edge) =
  let d = Schedule.delay sched e in
  if d = 0 then None
  else if
    not (Schedule.is_assigned sched e.G.src && Schedule.is_assigned sched e.G.dst)
  then None
  else begin
    let m = edge_cost sched e in
    let need = m + Schedule.ce sched e.G.src - Schedule.cb sched e.G.dst + 1 in
    Some (max 0 (ceil_div need d))
  end

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

let earliest_start sched ~node ~pe ~target_length =
  let bound acc (e : Csdfg.attr G.edge) =
    let u = e.G.src in
    if u = node || not (Schedule.is_assigned sched u) then acc
    else begin
      let m =
        Comm.cost (Schedule.comm sched) ~src:(Schedule.pe sched u) ~dst:pe
          ~volume:(Csdfg.volume e)
      in
      let an =
        m + Schedule.ce sched u + 1 - (Schedule.delay sched e * target_length)
      in
      max acc an
    end
  in
  let dfg = Schedule.dfg sched in
  max 1 (List.fold_left bound 1 (Csdfg.pred dfg node))
