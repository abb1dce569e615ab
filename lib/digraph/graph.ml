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

let add_edge g ~src ~dst label =
  check_node g src "add_edge";
  check_node g dst "add_edge";
  create ~n:g.n (g.all @ [ { src; dst; label } ])

let edges g = g.all

let succ g v =
  check_node g v "succ";
  g.out_adj.(v)

let pred g v =
  check_node g v "pred";
  g.in_adj.(v)

let distinct_sorted l = List.sort_uniq compare l
let succ_nodes g v = distinct_sorted (List.map (fun e -> e.dst) (succ g v))
let pred_nodes g v = distinct_sorted (List.map (fun e -> e.src) (pred g v))
let out_degree g v = List.length (succ g v)
let in_degree g v = List.length (pred g v)
let find_edges g ~src ~dst = List.filter (fun e -> e.dst = dst) (succ g src)
let mem_edge g ~src ~dst = find_edges g ~src ~dst <> []

let map_labels f g =
  create ~n:g.n (List.map (fun e -> { e with label = f e }) g.all)

let filter_edges keep g = create ~n:g.n (List.filter keep g.all)
let fold_edges f init g = List.fold_left f init g.all
let iter_edges f g = List.iter f g.all

let transpose g =
  create ~n:g.n
    (List.map (fun e -> { src = e.dst; dst = e.src; label = e.label }) g.all)

let self_loops g = List.filter (fun e -> e.src = e.dst) g.all

let equal eq_label a b =
  let key e = (e.src, e.dst) in
  let sort es =
    List.stable_sort (fun x y -> compare (key x) (key y)) es
  in
  n_nodes a = n_nodes b
  && n_edges a = n_edges b
  && List.for_all2
       (fun x y -> key x = key y && eq_label x.label y.label)
       (sort (edges a)) (sort (edges b))

let pp pp_label ppf g =
  Fmt.pf ppf "@[<v>graph: %d nodes, %d edges" g.n g.m;
  iter_edges
    (fun e -> Fmt.pf ppf "@,  %d -> %d [%a]" e.src e.dst pp_label e.label)
    g;
  Fmt.pf ppf "@]"
