module Csdfg = Dataflow.Csdfg
module G = Digraph.Graph

type strategy = Pf | Static_level | Mobility_only | Fifo

let pp_strategy ppf = function
  | Pf -> Fmt.string ppf "pf"
  | Static_level -> Fmt.string ppf "static-level"
  | Mobility_only -> Fmt.string ppf "mobility"
  | Fifo -> Fmt.string ppf "fifo"

type t = {
  dfg : Csdfg.t;
  analysis : Dataflow.Analysis.t;
  levels : int array;
}

(* Static level: longest zero-delay path starting at each node,
   including its own time — computed backwards over a topological
   order. *)
let compute_levels dfg ~dag ~order =
  let levels = Array.make (Csdfg.n_nodes dfg) 0 in
  List.iter
    (fun v ->
      let best_succ =
        List.fold_left
          (fun acc e -> max acc levels.(e.G.dst))
          0 (G.succ dag v)
      in
      levels.(v) <- Csdfg.time dfg v + best_succ)
    (List.rev order);
  levels

let of_dag dfg ~dag ~order =
  {
    dfg;
    analysis = Dataflow.Analysis.of_dag dfg ~dag ~order;
    levels = compute_levels dfg ~dag ~order;
  }

let create dfg =
  let dag = Csdfg.zero_delay_graph dfg in
  match Digraph.Topo.sort dag with
  | Some order -> of_dag dfg ~dag ~order
  | None -> invalid_arg "Priority.create: zero-delay subgraph is cyclic"

let analysis t = t.analysis
let mobility t v = Dataflow.Analysis.mobility t.analysis v
let static_level t v = t.levels.(v)

let pf t ~ce ~cs v =
  let from_edge acc (e : Csdfg.attr G.edge) =
    let u = e.G.src in
    if Csdfg.delay e <> 0 || ce.(u) = 0 then acc
    else begin
      let m = Csdfg.volume e in
      let waited = cs - (ce.(u) + 1) in
      max acc (Some (m - waited - mobility t v))
    end
  in
  match List.fold_left from_edge None (Csdfg.pred t.dfg v) with
  | Some p -> p
  | None -> -mobility t v

type key = Affine of int | Const of int

let sort_key strategy t ~ce v =
  match strategy with
  | Pf -> (
      (* [pf] at step cs is [max over assigned zero-delay preds
         (m + CE u + 1) - MB v - cs]: affine in cs with a slope shared
         by every such node, so the constant part alone orders them at
         any step.  The fallback [-MB v] has no cs term. *)
      let k =
        List.fold_left
          (fun acc (e : Csdfg.attr G.edge) ->
            let u = e.G.src in
            if Csdfg.delay e <> 0 || ce.(u) = 0 then acc
            else begin
              let b = Csdfg.volume e + ce.(u) + 1 in
              match acc with Some x when x >= b -> acc | _ -> Some b
            end)
          None (Csdfg.pred t.dfg v)
      in
      match k with
      | Some k -> Affine (k - mobility t v)
      | None -> Const (-mobility t v))
  | Static_level -> Const t.levels.(v)
  | Mobility_only -> Const (-mobility t v)
  | Fifo -> Const (-v)

let score strategy t ~ce ~cs v =
  match strategy with
  | Pf -> pf t ~ce ~cs v
  | Static_level -> static_level t v
  | Mobility_only -> -mobility t v
  | Fifo -> -v

let sort_ready ?(strategy = Pf) t ~ce ~cs ready =
  let keyed = List.map (fun v -> (score strategy t ~ce ~cs v, v)) ready in
  keyed
  |> List.stable_sort (fun (pa, va) (pb, vb) ->
         match compare pb pa with 0 -> compare va vb | c -> c)
  |> List.map snd
