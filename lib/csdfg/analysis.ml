module G = Digraph.Graph

type t = { asap : int array; alap : int array; critical_path : int }

let of_dag g ~dag ~order =
  let n = Csdfg.n_nodes g in
  let asap = Array.make n 1 in
  List.iter
    (fun u ->
      List.iter
        (fun e ->
          let v = e.G.dst in
          let finish = asap.(u) + Csdfg.time g u in
          if asap.(v) < finish then asap.(v) <- finish)
        (G.succ dag u))
    order;
  let critical_path =
    List.fold_left (fun acc v -> max acc (asap.(v) + Csdfg.time g v - 1)) 0
      (Csdfg.nodes g)
  in
  let alap = Array.make n 0 in
  List.iter
    (fun v -> alap.(v) <- critical_path - Csdfg.time g v + 1)
    (Csdfg.nodes g);
  List.iter
    (fun v ->
      List.iter
        (fun e ->
          let u = e.G.src in
          let latest = alap.(v) - Csdfg.time g u in
          if alap.(u) > latest then alap.(u) <- latest)
        (G.pred dag v))
    (List.rev order);
  { asap; alap; critical_path }

let compute g =
  let dag = Csdfg.zero_delay_graph g in
  match Digraph.Topo.sort dag with
  | Some order -> of_dag g ~dag ~order
  | None -> invalid_arg "Analysis.compute: zero-delay subgraph is cyclic"

let mobility t v = t.alap.(v) - t.asap.(v)
