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

(* The search's witness, rotated to start at its smallest node like
   [Digraph.Cycles.elementary]'s cycles. *)
let critical_cycle g =
  Digraph.Karp.critical_cycle (Csdfg.graph g) ~num:(num g) ~den
  |> Option.map (fun (_, edges) ->
         let nodes = List.map (fun e -> e.Digraph.Graph.src) edges in
         let first = List.fold_left min max_int nodes in
         let rec rotate before = function
           | v :: rest when v = first -> (v :: rest) @ List.rev before
           | v :: rest -> rotate (v :: before) rest
           | [] -> List.rev before
         in
         rotate [] nodes)
