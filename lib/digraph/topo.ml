(* Kahn's algorithm with the ready nodes in a min-heap keyed by id: ids
   are distinct, so the smallest ready id always comes out first. *)
let sort g =
  let n = Graph.n_nodes g in
  let indeg = Array.init n (Graph.in_degree g) in
  let roots = ref Pqueue.empty in
  for v = 0 to n - 1 do
    if indeg.(v) = 0 then roots := Pqueue.insert !roots v ()
  done;
  let release ready e =
    let w = e.Graph.dst in
    indeg.(w) <- indeg.(w) - 1;
    if indeg.(w) = 0 then Pqueue.insert ready w () else ready
  in
  let rec drain ready order count =
    match Pqueue.pop ready with
    | None -> if count = n then Some (List.rev order) else None
    | Some ((v, ()), ready) ->
        drain
          (List.fold_left release ready (Graph.succ g v))
          (v :: order) (count + 1)
  in
  drain !roots [] 0

let sort_exn g =
  match sort g with
  | Some order -> order
  | None -> invalid_arg "Digraph.Topo.sort_exn: graph has a cycle"

let is_dag g = sort g <> None

let layers g =
  match sort g with
  | None -> None
  | Some order ->
      let n = Graph.n_nodes g in
      let depth = Array.make n 0 in
      let raise_depth v =
        let bump e =
          let w = e.Graph.dst in
          if depth.(w) < depth.(v) + 1 then depth.(w) <- depth.(v) + 1
        in
        List.iter bump (Graph.succ g v)
      in
      List.iter raise_depth order;
      let max_depth = Array.fold_left max 0 depth in
      let buckets = Array.make (max_depth + 1) [] in
      List.iter (fun v -> buckets.(depth.(v)) <- v :: buckets.(depth.(v)))
        (List.rev order);
      Some (Array.to_list buckets)

let longest_path_nodes g ~weight =
  if Graph.n_nodes g = 0 then 0
  else begin
    let order = sort_exn g in
    let best = Array.make (Graph.n_nodes g) 0 in
    let relax v =
      best.(v) <- best.(v) + weight v;
      let push e =
        let w = e.Graph.dst in
        if best.(w) < best.(v) then best.(w) <- best.(v)
      in
      List.iter push (Graph.succ g v)
    in
    List.iter relax order;
    Array.fold_left max 0 best
  end
