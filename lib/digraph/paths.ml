let unreachable = max_int / 4

let dijkstra_tree g ~weight ~src =
  let n = Graph.n_nodes g in
  let dist = Array.make n unreachable in
  let parent = Array.make n (-1) in
  let settled = Array.make n false in
  dist.(src) <- 0;
  let heap = ref (Pqueue.insert Pqueue.empty 0 src) in
  while not (Pqueue.is_empty !heap) do
    match Pqueue.pop !heap with
    | None -> ()
    | Some ((d, v), rest) ->
        heap := rest;
        if not settled.(v) && d = dist.(v) then begin
          settled.(v) <- true;
          let relax e =
            let w = weight e in
            if w < 0 then
              invalid_arg "Digraph.Paths.dijkstra: negative edge weight";
            let u = e.Graph.dst in
            if dist.(v) + w < dist.(u) then begin
              dist.(u) <- dist.(v) + w;
              parent.(u) <- v;
              heap := Pqueue.insert !heap dist.(u) u
            end
          in
          List.iter relax (Graph.succ g v)
        end
  done;
  (dist, parent)

(* Bellman-Ford from a virtual super-source at distance 0 to every node;
   [None] on a negative cycle. *)
let feasible_potentials g ~weight =
  let n = Graph.n_nodes g in
  let dist = Array.make n 0 in
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds <= n do
    changed := false;
    incr rounds;
    let relax e =
      let d = dist.(e.Graph.src) + weight e in
      if d < dist.(e.Graph.dst) then begin
        dist.(e.Graph.dst) <- d;
        changed := true
      end
    in
    Graph.iter_edges relax g
  done;
  if !changed then None else Some dist
