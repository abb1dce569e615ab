type 'e edge = { src : int; dst : int; label : 'e }

type 'e t = {
  n : int;
  m : int;
  (* Every edge list is stored once, in insertion order: each node's out-
     and in-edges in two arrays, all edges in one list.  Reads return the
     stored lists; every update builds a new graph. *)
  out_adj : 'e edge list array;
  in_adj : 'e edge list array;
  all : 'e edge list;
}

let check_node g v ctx =
  if v < 0 || v >= g.n then
    invalid_arg (Printf.sprintf "Digraph.Graph.%s: node %d out of range [0..%d]" ctx v (g.n - 1))

let empty n =
  if n < 0 then invalid_arg "Digraph.Graph.empty: negative node count";
  { n; m = 0; out_adj = Array.make n []; in_adj = Array.make n []; all = [] }

let n_nodes g = g.n
let n_edges g = g.m
let nodes g = List.init g.n Fun.id

let create ~n edges =
  let g = empty n in
  let m =
    List.fold_left
      (fun m e ->
        check_node g e.src "create";
        check_node g e.dst "create";
        m + 1)
      0 edges
  in
  (* Consing from the last edge back leaves every list in insertion order. *)
  List.iter
    (fun e ->
      g.out_adj.(e.src) <- e :: g.out_adj.(e.src);
      g.in_adj.(e.dst) <- e :: g.in_adj.(e.dst))
    (List.rev edges);
  { g with m; all = edges }

let edges g = g.all

let succ g v =
  check_node g v "succ";
  g.out_adj.(v)

let pred g v =
  check_node g v "pred";
  g.in_adj.(v)

let out_degree g v = List.length (succ g v)
let in_degree g v = List.length (pred g v)

let map_labels f g =
  create ~n:g.n (List.map (fun e -> { e with label = f e }) g.all)

let filter_edges keep g = create ~n:g.n (List.filter keep g.all)
let iter_edges f g = List.iter f g.all
