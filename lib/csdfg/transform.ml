module G = Digraph.Graph

let map_attrs g ~name ~f =
  let graph = G.map_labels (fun e -> f e.G.label) (Csdfg.graph g) in
  Csdfg.of_graph ~name
    ~labels:(Array.init (Csdfg.n_nodes g) (Csdfg.label g))
    ~time:(Array.init (Csdfg.n_nodes g) (Csdfg.time g))
    graph

let slowdown g k =
  if k <= 0 then invalid_arg "Transform.slowdown: factor must be positive";
  map_attrs g
    ~name:(Printf.sprintf "%s-slow%d" (Csdfg.name g) k)
    ~f:(fun a -> { a with Csdfg.delay = a.Csdfg.delay * k })

let scale_volumes g k =
  if k <= 0 then invalid_arg "Transform.scale_volumes: factor must be positive";
  map_attrs g
    ~name:(Printf.sprintf "%s-vol%d" (Csdfg.name g) k)
    ~f:(fun a -> { a with Csdfg.volume = a.Csdfg.volume * k })

let unfold g f =
  if f <= 0 then invalid_arg "Transform.unfold: factor must be positive";
  let n = Csdfg.n_nodes g in
  let copy v i = (i * n) + v in
  let labels =
    Array.init (f * n) (fun id ->
        Printf.sprintf "%s#%d" (Csdfg.label g (id mod n)) (id / n))
  in
  let time = Array.init (f * n) (fun id -> Csdfg.time g (id mod n)) in
  let edges =
    List.concat_map
      (fun e ->
        let d = Csdfg.delay e and c = Csdfg.volume e in
        List.init f (fun i ->
            {
              G.src = copy e.G.src i;
              dst = copy e.G.dst ((i + d) mod f);
              label = { Csdfg.delay = (i + d) / f; volume = c };
            }))
      (Csdfg.edges g)
  in
  Csdfg.of_graph
    ~name:(Printf.sprintf "%s-unfold%d" (Csdfg.name g) f)
    ~labels ~time
    (G.create ~n:(f * n) edges)

let disjoint_union a b =
  let na = Csdfg.n_nodes a and nb = Csdfg.n_nodes b in
  let collide =
    List.exists
      (fun v ->
        match Csdfg.node_of_label b (Csdfg.label a v) with
        | _ -> true
        | exception Not_found -> false)
      (Csdfg.nodes a)
  in
  let label_a v = if collide then "l:" ^ Csdfg.label a v else Csdfg.label a v in
  let label_b v = if collide then "r:" ^ Csdfg.label b v else Csdfg.label b v in
  let labels =
    Array.init (na + nb) (fun id ->
        if id < na then label_a id else label_b (id - na))
  in
  let time =
    Array.init (na + nb) (fun id ->
        if id < na then Csdfg.time a id else Csdfg.time b (id - na))
  in
  let edges =
    List.map (fun e -> e) (Csdfg.edges a)
    @ List.map
        (fun e -> { e with G.src = e.G.src + na; dst = e.G.dst + na })
        (Csdfg.edges b)
  in
  Csdfg.of_graph
    ~name:(Csdfg.name a ^ "+" ^ Csdfg.name b)
    ~labels ~time
    (G.create ~n:(na + nb) edges)
