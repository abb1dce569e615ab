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

let rotate_to_smallest cycle =
  let least = List.fold_left min max_int cycle in
  let rec go before = function
    | v :: _ as rest when v = least -> rest @ List.rev before
    | v :: rest -> go (v :: before) rest
    | [] -> List.rev before
  in
  go [] cycle

(* Kahn's pass with the ready nodes on a plain stack.  The nodes it never
   releases do not depend on the order it takes the ready ones in: they
   are exactly the nodes a cycle reaches, and each keeps a predecessor
   among them.  So a walk back from one of them through such
   predecessors repeats a node, and the walk from its newest node back
   to the repeated one is a cycle in edge order. *)
let find_cycle g =
  let n = Graph.n_nodes g in
  let indeg = Array.init n (Graph.in_degree g) in
  let ready = Array.make n 0 and top = ref 0 in
  let push v =
    ready.(!top) <- v;
    incr top
  in
  for v = 0 to n - 1 do
    if indeg.(v) = 0 then push v
  done;
  let released = ref 0 in
  while !top > 0 do
    decr top;
    let v = ready.(!top) in
    incr released;
    List.iter
      (fun e ->
        let w = e.Graph.dst in
        indeg.(w) <- indeg.(w) - 1;
        if indeg.(w) = 0 then push w)
      (Graph.succ g v)
  done;
  if !released = n then None
  else begin
    let unreleased v = indeg.(v) > 0 in
    let on_walk = Array.make n false in
    (* [walk] holds the nodes visited so far, newest first. *)
    let rec back v walk =
      if on_walk.(v) then (v, walk)
      else begin
        on_walk.(v) <- true;
        let e = List.find (fun e -> unreleased e.Graph.src) (Graph.pred g v) in
        back e.Graph.src (v :: walk)
      end
    in
    let rec first v = if unreleased v then v else first (v + 1) in
    let repeated, walk = back (first 0) [] in
    let rec cycle acc = function
      | v :: _ when v = repeated -> List.rev (v :: acc)
      | v :: older -> cycle (v :: acc) older
      | [] -> assert false
    in
    Some (rotate_to_smallest (cycle [] walk))
  end

let is_dag g = find_cycle g = None

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
