(* Cycle time counts the *source* node of each edge once, so summing
   t(src) over a cycle's edges counts every node of the cycle exactly
   once. *)
let num g e = Csdfg.time g e.Digraph.Graph.src
let den e = Csdfg.delay e

let exact g = Digraph.Karp.maximum_cycle_ratio (Csdfg.graph g) ~num:(num g) ~den

let exact_ceil g =
  match exact g with
  | None -> None
  | Some (t, d) -> Some ((t + d - 1) / d)

let critical_cycles ?max_cycles g =
  match exact g with
  | None -> []
  | Some (bt, bd) ->
      let graph = Csdfg.graph g in
      let attains_bound cyc =
        (* some combination of parallel edges reaches the bound *)
        List.exists
          (fun edges ->
            let sum f = List.fold_left (fun acc e -> acc + f e) 0 edges in
            sum (num g) * bd = bt * sum den)
          (Digraph.Cycles.all_cycle_edges graph cyc)
      in
      Digraph.Cycles.elementary ?max_cycles graph |> List.filter attains_bound
