type 'e edge = { src : int; dst : int; label : 'e }

module Imap = Map.Make (Int)

type 'e t = {
  n : int;
  m : int;
  (* Edge lists are kept reversed internally and re-reversed on read, so
     that insertion stays O(log n) while the public order is insertion
     order. *)
  out_rev : 'e edge list Imap.t;
  in_rev : 'e edge list Imap.t;
  all_rev : 'e edge list;
}

let check_node g v ctx =
  if v < 0 || v >= g.n then
    invalid_arg (Printf.sprintf "Digraph.Graph.%s: node %d out of range [0..%d]" ctx v (g.n - 1))

let empty n =
  if n < 0 then invalid_arg "Digraph.Graph.empty: negative node count";
  { n; m = 0; out_rev = Imap.empty; in_rev = Imap.empty; all_rev = [] }

let n_nodes g = g.n
let n_edges g = g.m
let nodes g = List.init g.n Fun.id

let add_edge g ~src ~dst label =
  check_node g src "add_edge";
  check_node g dst "add_edge";
  let e = { src; dst; label } in
  let cons = function None -> Some [ e ] | Some l -> Some (e :: l) in
  {
    g with
    m = g.m + 1;
    out_rev = Imap.update src cons g.out_rev;
    in_rev = Imap.update dst cons g.in_rev;
    all_rev = e :: g.all_rev;
  }

let create ~n edges =
  let g = empty n in
  List.fold_left (fun g e -> add_edge g ~src:e.src ~dst:e.dst e.label) g edges

let edges g = List.rev g.all_rev

let raw map v = Option.value ~default:[] (Imap.find_opt v map)
let adjacency map v = List.rev (raw map v)

let succ g v =
  check_node g v "succ";
  adjacency g.out_rev v

let pred g v =
  check_node g v "pred";
  adjacency g.in_rev v

let distinct_sorted l = List.sort_uniq compare l
let succ_nodes g v = distinct_sorted (List.map (fun e -> e.dst) (succ g v))
let pred_nodes g v = distinct_sorted (List.map (fun e -> e.src) (pred g v))
let out_degree g v = List.length (succ g v)
let in_degree g v = List.length (pred g v)
let find_edges g ~src ~dst = List.filter (fun e -> e.dst = dst) (succ g src)
let mem_edge g ~src ~dst = find_edges g ~src ~dst <> []

let map_labels f g =
  create ~n:g.n (List.map (fun e -> { e with label = f e }) (edges g))

module Iset = Set.Make (Int)

(* Only the adjacency lists of [nodes] and of their neighbours hold an
   edge incident to [nodes]; every other list, and every untouched edge
   record, is shared with [g].  The all-edges list is re-consed once. *)
let map_incident nodes f g =
  List.iter (fun v -> check_node g v "map_incident") nodes;
  let set = Iset.of_list nodes in
  let incident e = Iset.mem e.src set || Iset.mem e.dst set in
  let relabel e = if incident e then { e with label = f e } else e in
  let rewrite owners map =
    Iset.fold
      (fun v map ->
        match Imap.find_opt v map with
        | Some l -> Imap.add v (List.map relabel l) map
        | None -> map)
      owners map
  in
  let sources, targets =
    Iset.fold
      (fun v acc ->
        let add_both acc e =
          (Iset.add e.src (fst acc), Iset.add e.dst (snd acc))
        in
        let acc = List.fold_left add_both acc (raw g.out_rev v) in
        List.fold_left add_both acc (raw g.in_rev v))
      set (Iset.empty, Iset.empty)
  in
  {
    g with
    out_rev = rewrite sources g.out_rev;
    in_rev = rewrite targets g.in_rev;
    all_rev = List.map relabel g.all_rev;
  }

let filter_edges keep g = create ~n:g.n (List.filter keep (edges g))
let fold_edges f init g = List.fold_left f init (edges g)
let iter_edges f g = List.iter f (edges g)

let transpose g =
  create ~n:g.n
    (List.map (fun e -> { src = e.dst; dst = e.src; label = e.label }) (edges g))

let self_loops g = List.filter (fun e -> e.src = e.dst) (edges g)

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
