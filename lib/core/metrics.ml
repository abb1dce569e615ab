module Csdfg = Dataflow.Csdfg

let busy_steps sched =
  let busy = ref 0 in
  Schedule.iter_placements
    (fun v ~cb:_ ~pe -> busy := !busy + Schedule.duration sched ~node:v ~pe)
    sched;
  !busy

let utilization sched =
  let cells = Schedule.length sched * Schedule.n_processors sched in
  if cells = 0 then 0. else float_of_int (busy_steps sched) /. float_of_int cells

let processors_used sched =
  let used = Array.make (Schedule.n_processors sched) false in
  Schedule.iter_placements (fun _ ~cb:_ ~pe -> used.(pe) <- true) sched;
  Array.fold_left (fun n u -> if u then n + 1 else n) 0 used

let speedup_vs_sequential sched =
  let len = Schedule.length sched in
  if len = 0 then 0.
  else float_of_int (Csdfg.total_time (Schedule.dfg sched)) /. float_of_int len

let comm_cost_per_iteration sched =
  List.fold_left
    (fun acc e ->
      if
        Schedule.is_assigned sched e.Digraph.Graph.src
        && Schedule.is_assigned sched e.Digraph.Graph.dst
      then acc + Timing.edge_cost sched e
      else acc)
    0
    (Csdfg.edges (Schedule.dfg sched))

let cross_edges sched =
  List.fold_left
    (fun acc e ->
      if
        Schedule.is_assigned sched e.Digraph.Graph.src
        && Schedule.is_assigned sched e.Digraph.Graph.dst
        && Schedule.pe sched e.Digraph.Graph.src
           <> Schedule.pe sched e.Digraph.Graph.dst
      then acc + 1
      else acc)
    0
    (Csdfg.edges (Schedule.dfg sched))

let comm_ratio sched =
  let total = Csdfg.total_time (Schedule.dfg sched) in
  if total = 0 then 0.
  else float_of_int (comm_cost_per_iteration sched) /. float_of_int total

let improvement ~before ~after =
  let lb = Schedule.length before and la = Schedule.length after in
  if lb = 0 then 0. else 100. *. float_of_int (lb - la) /. float_of_int lb

let pp_summary ppf sched =
  Fmt.pf ppf "length=%d util=%.2f pes=%d speedup=%.2f" (Schedule.length sched)
    (utilization sched) (processors_used sched) (speedup_vs_sequential sched)
