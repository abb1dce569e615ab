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

let dijkstra g ~weight ~src = fst (dijkstra_tree g ~weight ~src)

let path_to ~dist ~parent dst =
  if dst < 0 || dst >= Array.length dist || dist.(dst) >= unreachable then None
  else begin
    let rec build v acc =
      if parent.(v) < 0 then v :: acc else build parent.(v) (v :: acc)
    in
    Some (build dst [])
  end

(* Bellman-Ford over a seed distance array; returns [None] on a negative
   cycle reachable from a seeded node. *)
let bellman_ford_seeded g ~weight dist =
  let n = Graph.n_nodes g in
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds <= n do
    changed := false;
    incr rounds;
    let relax e =
      if dist.(e.Graph.src) < unreachable then begin
        let d = dist.(e.Graph.src) + weight e in
        if d < dist.(e.Graph.dst) then begin
          dist.(e.Graph.dst) <- d;
          changed := true
        end
      end
    in
    Graph.iter_edges relax g
  done;
  if !changed then None else Some dist

let bellman_ford g ~weight ~src =
  let dist = Array.make (Graph.n_nodes g) unreachable in
  dist.(src) <- 0;
  bellman_ford_seeded g ~weight dist

let feasible_potentials g ~weight =
  (* Virtual super-source at distance 0 to every node: just seed all 0. *)
  bellman_ford_seeded g ~weight (Array.make (Graph.n_nodes g) 0)

let has_negative_cycle g ~weight = feasible_potentials g ~weight = None

let floyd_warshall g ~weight =
  let n = Graph.n_nodes g in
  let dist = Array.make_matrix n n unreachable in
  for v = 0 to n - 1 do
    dist.(v).(v) <- 0
  done;
  let seed e =
    let w = weight e in
    if w < dist.(e.Graph.src).(e.Graph.dst) then
      dist.(e.Graph.src).(e.Graph.dst) <- w
  in
  Graph.iter_edges seed g;
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      if dist.(i).(k) < unreachable then
        for j = 0 to n - 1 do
          if dist.(k).(j) < unreachable then begin
            let via = dist.(i).(k) + dist.(k).(j) in
            if via < dist.(i).(j) then dist.(i).(j) <- via
          end
        done
    done
  done;
  for v = 0 to n - 1 do
    if dist.(v).(v) < 0 then
      invalid_arg "Digraph.Paths.floyd_warshall: negative cycle"
  done;
  dist

let shortest_hops g ~src = Traverse.bfs_levels g src
