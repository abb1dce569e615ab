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

(* The search's witness, rotated to start at its smallest node like the
   zero-delay cycle [Csdfg.validate] names. *)
let critical_cycle g =
  Digraph.Karp.critical_cycle (Csdfg.graph g) ~num:(num g) ~den
  |> Option.map (fun (_, edges) ->
         Digraph.Topo.rotate_to_smallest
           (List.map (fun e -> e.Digraph.Graph.src) edges))
