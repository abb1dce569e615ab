module G = Digraph.Graph

type attr = { delay : int; volume : int }

type t = {
  name : string;
  graph : attr G.t;
  time : int array;
  labels : string array;
  index : (string, int) Hashtbl.t;
}

let build_index labels =
  let index = Hashtbl.create (Array.length labels) in
  Array.iteri
    (fun i lbl ->
      if Hashtbl.mem index lbl then
        invalid_arg (Printf.sprintf "Csdfg: duplicate node label %S" lbl);
      Hashtbl.add index lbl i)
    labels;
  index

let check_weights graph time =
  Array.iteri
    (fun i t ->
      if t <= 0 then
        invalid_arg (Printf.sprintf "Csdfg: node %d has non-positive time %d" i t))
    time;
  G.iter_edges
    (fun e ->
      if e.G.label.delay < 0 then
        invalid_arg
          (Printf.sprintf "Csdfg: edge %d -> %d has negative delay" e.G.src e.G.dst);
      if e.G.label.volume <= 0 then
        invalid_arg
          (Printf.sprintf "Csdfg: edge %d -> %d has non-positive volume" e.G.src
             e.G.dst))
    graph

let of_graph ~name ~labels ~time graph =
  let n = G.n_nodes graph in
  if Array.length labels <> n || Array.length time <> n then
    invalid_arg "Csdfg.of_graph: size mismatch";
  check_weights graph time;
  { name; graph; time = Array.copy time; labels = Array.copy labels;
    index = build_index labels }

let make ~name ~nodes ~edges =
  let labels = Array.of_list (List.map fst nodes) in
  let time = Array.of_list (List.map snd nodes) in
  let index = build_index labels in
  let resolve lbl =
    match Hashtbl.find_opt index lbl with
    | Some i -> i
    | None -> invalid_arg (Printf.sprintf "Csdfg.make: unknown node label %S" lbl)
  in
  let graph =
    G.create ~n:(Array.length labels)
      (List.map
         (fun (src, dst, delay, volume) ->
           let src = resolve src in
           let dst = resolve dst in
           { G.src; dst; label = { delay; volume } })
         edges)
  in
  check_weights graph time;
  { name; graph; time; labels; index }

let name t = t.name
let graph t = t.graph
let n_nodes t = G.n_nodes t.graph
let n_edges t = G.n_edges t.graph
let nodes t = G.nodes t.graph

let time t v =
  if v < 0 || v >= n_nodes t then invalid_arg "Csdfg.time: node out of range";
  t.time.(v)

let label t v =
  if v < 0 || v >= n_nodes t then invalid_arg "Csdfg.label: node out of range";
  t.labels.(v)

let node_of_label t lbl =
  match Hashtbl.find_opt t.index lbl with
  | Some v -> v
  | None -> raise Not_found

let edges t = G.edges t.graph
let succ t v = G.succ t.graph v
let pred t v = G.pred t.graph v
let delay (e : attr G.edge) = e.G.label.delay
let volume (e : attr G.edge) = e.G.label.volume
let total_time t = Array.fold_left ( + ) 0 t.time
let max_time t = Array.fold_left max 1 t.time

type violation =
  | Zero_delay_cycle of int list
  | Bad_time of int
  | Bad_volume of int * int
  | Negative_delay of int * int

let pp_violation t ppf = function
  | Zero_delay_cycle cyc ->
      Fmt.pf ppf "cycle without positive delay: %a"
        (Fmt.list ~sep:(Fmt.any " -> ") Fmt.string)
        (List.map (label t) cyc)
  | Bad_time v -> Fmt.pf ppf "node %s has non-positive time" (label t v)
  | Bad_volume (u, v) ->
      Fmt.pf ppf "edge %s -> %s has non-positive volume" (label t u) (label t v)
  | Negative_delay (u, v) ->
      Fmt.pf ppf "edge %s -> %s has negative delay" (label t u) (label t v)

let zero_delay_graph t = G.filter_edges (fun e -> e.G.label.delay = 0) t.graph

let validate t =
  let problems = ref [] in
  Array.iteri (fun v tm -> if tm <= 0 then problems := Bad_time v :: !problems)
    t.time;
  G.iter_edges
    (fun e ->
      if e.G.label.delay < 0 then
        problems := Negative_delay (e.G.src, e.G.dst) :: !problems;
      if e.G.label.volume <= 0 then
        problems := Bad_volume (e.G.src, e.G.dst) :: !problems)
    t.graph;
  (* Every cycle must carry positive total delay.  Delays are
     non-negative, so it suffices that the zero-delay subgraph is acyclic;
     the one pass that checks it names an offending cycle when it is not. *)
  Option.iter
    (fun cyc -> problems := Zero_delay_cycle cyc :: !problems)
    (Digraph.Topo.find_cycle (zero_delay_graph t));
  match List.rev !problems with [] -> Ok () | l -> Error l

let check t =
  match validate t with
  | Ok () | Error [] -> Ok ()
  | Error (v :: _) ->
      Error (Fmt.str "illegal CSDFG: %a" (pp_violation t) v)

let is_legal t = validate t = Ok ()

let pp ppf t =
  Fmt.pf ppf "@[<v>CSDFG %s: %d nodes, %d edges" t.name (n_nodes t) (n_edges t);
  List.iter
    (fun v -> Fmt.pf ppf "@,  node %s t=%d" t.labels.(v) t.time.(v))
    (nodes t);
  G.iter_edges
    (fun e ->
      Fmt.pf ppf "@,  %s -> %s d=%d c=%d" t.labels.(e.G.src) t.labels.(e.G.dst)
        e.G.label.delay e.G.label.volume)
    t.graph;
  Fmt.pf ppf "@]"

let pp_stats ppf t =
  let delays = List.map delay (edges t) in
  let total_delay = List.fold_left ( + ) 0 delays in
  Fmt.pf ppf "%s: |V|=%d |E|=%d total-time=%d total-delay=%d" t.name (n_nodes t)
    (n_edges t) (total_time t) total_delay
