(* Unit and property tests for the digraph substrate. *)

module G = Digraph.Graph

let edge src dst label = { G.src; dst; label }

(* A diamond: 0 -> 1 -> 3, 0 -> 2 -> 3. *)
let diamond () =
  G.create ~n:4 [ edge 0 1 "a"; edge 0 2 "b"; edge 1 3 "c"; edge 2 3 "d" ]

(* Two strongly connected components: {0,1,2} and {3,4}, plus a bridge. *)
let two_sccs () =
  G.create ~n:5
    [
      edge 0 1 (); edge 1 2 (); edge 2 0 ();
      edge 2 3 ();
      edge 3 4 (); edge 4 3 ();
    ]

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_list_int = Alcotest.(check (list int))

(* ------------------------------------------------------------------ *)
(* Graph                                                                *)
(* ------------------------------------------------------------------ *)

let test_empty () =
  let g : unit G.t = G.empty 3 in
  check "nodes" 3 (G.n_nodes g);
  check "edges" 0 (G.n_edges g);
  check_list_int "node list" [ 0; 1; 2 ] (G.nodes g)

let test_empty_zero () =
  let g : unit G.t = G.empty 0 in
  check "no nodes" 0 (G.n_nodes g);
  check_list_int "empty node list" [] (G.nodes g)

let test_empty_negative () =
  Alcotest.check_raises "negative size" (Invalid_argument
    "Digraph.Graph.empty: negative node count") (fun () ->
      ignore (G.empty (-1)))

let test_create_out_of_range () =
  Alcotest.check_raises "bad src"
    (Invalid_argument "Digraph.Graph.create: node 5 out of range [0..1]")
    (fun () -> ignore (G.create ~n:2 [ edge 5 0 () ]))

let test_succ_pred () =
  let g = diamond () in
  check "succ 0" 2 (List.length (G.succ g 0));
  check "pred 3" 2 (List.length (G.pred g 3));
  check "out_degree" 2 (G.out_degree g 0);
  check "in_degree" 0 (G.in_degree g 0)

let test_insertion_order () =
  let g = diamond () in
  let labels = List.map (fun e -> e.G.label) (G.edges g) in
  Alcotest.(check (list string)) "insertion order" [ "a"; "b"; "c"; "d" ] labels

let test_multigraph () =
  let g = G.create ~n:2 [ edge 0 1 "x"; edge 0 1 "y" ] in
  Alcotest.(check (list string)) "two parallel edges" [ "x"; "y" ]
    (List.map (fun e -> e.G.label) (G.succ g 0));
  check "none back" 0 (List.length (G.succ g 1))

let test_map_labels () =
  let g = diamond () in
  let g' = G.map_labels (fun e -> String.uppercase_ascii e.G.label) g in
  let labels = List.map (fun e -> e.G.label) (G.edges g') in
  Alcotest.(check (list string)) "mapped" [ "A"; "B"; "C"; "D" ] labels

let test_filter_edges () =
  let g = diamond () in
  let g' = G.filter_edges (fun e -> e.G.src = 0) g in
  check "kept" 2 (G.n_edges g');
  check "same nodes" 4 (G.n_nodes g')

(* ------------------------------------------------------------------ *)
(* Topo                                                                 *)
(* ------------------------------------------------------------------ *)

let test_topo_sort () =
  let g = diamond () in
  match Digraph.Topo.sort g with
  | None -> Alcotest.fail "diamond is a DAG"
  | Some order ->
      check_list_int "deterministic order" [ 0; 1; 2; 3 ] order

let test_topo_cyclic () =
  let g = G.create ~n:2 [ edge 0 1 (); edge 1 0 () ] in
  Alcotest.(check bool) "cycle detected" true (Digraph.Topo.sort g = None);
  check_bool "is_dag false" false (Digraph.Topo.is_dag g)

let test_topo_respects_edges () =
  let g = two_sccs () in
  check_bool "cyclic graph has no order" true (Digraph.Topo.sort g = None)

(* Kahn's algorithm with the ready set in a [Set], smallest id first:
   the order [Topo.sort] must keep now that its ready set is a heap. *)
let reference_topo_sort g =
  let module S = Set.Make (Int) in
  let n = G.n_nodes g in
  let indeg = Array.init n (G.in_degree g) in
  let rec go ready acc =
    match S.min_elt_opt ready with
    | None -> if List.length acc = n then Some (List.rev acc) else None
    | Some v ->
        let release ready e =
          let w = e.G.dst in
          indeg.(w) <- indeg.(w) - 1;
          if indeg.(w) = 0 then S.add w ready else ready
        in
        go (List.fold_left release (S.remove v ready) (G.succ g v)) (v :: acc)
  in
  go (S.of_list (List.filter (fun v -> indeg.(v) = 0) (G.nodes g))) []

(* Random DAGs (every edge goes up a random ranking of the nodes) and,
   half the time, graphs with edges in any direction, self-loops
   included, which mostly hold cycles; parallel edges in both. *)
let test_topo_sort_matches_reference =
  QCheck_alcotest.to_alcotest ~long:false
    (QCheck.Test.make ~count:500
       ~name:"topo sort = set-based reference (DAGs and cyclic graphs)"
       (QCheck.int_range 0 100_000)
       (fun seed ->
         let rng = Random.State.make [| seed; 0x70b0 |] in
         let n = Random.State.int rng 14 in
         let rank = Array.init n (fun _ -> Random.State.bits rng) in
         let cyclic = Random.State.bool rng in
         let edges =
           List.concat
             (List.init n (fun a ->
                  List.concat
                    (List.init n (fun b ->
                         if
                           (cyclic || rank.(a) < rank.(b))
                           && Random.State.float rng 1.0 < 0.25
                         then
                           List.init (1 + Random.State.int rng 2) (fun _ ->
                               edge a b ())
                         else []))))
         in
         let g = G.create ~n edges in
         Digraph.Topo.sort g = reference_topo_sort g))

(* The cycle comes back in edge order from its smallest node: the walk
   starts at node 0 of [two_sccs] and at the tail node 0 of [tailed],
   which reaches the cycle 1 -> 2 without lying on it. *)
let test_find_cycle () =
  let cycle = Alcotest.(check (option (list int))) in
  cycle "diamond" None (Digraph.Topo.find_cycle (diamond ()));
  cycle "two sccs" (Some [ 0; 1; 2 ]) (Digraph.Topo.find_cycle (two_sccs ()));
  let tailed = G.create ~n:3 [ edge 1 0 (); edge 2 1 (); edge 1 2 () ] in
  cycle "tail into a cycle" (Some [ 1; 2 ]) (Digraph.Topo.find_cycle tailed);
  let loop = G.create ~n:3 [ edge 0 1 (); edge 2 2 (); edge 1 2 () ] in
  cycle "self-loop" (Some [ 2 ]) (Digraph.Topo.find_cycle loop);
  cycle "empty" None (Digraph.Topo.find_cycle (G.empty 0))

let test_longest_path () =
  let g = diamond () in
  check "unit weights" 3 (Digraph.Topo.longest_path_nodes g ~weight:(fun _ -> 1));
  check "weighted" 6
    (Digraph.Topo.longest_path_nodes g ~weight:(fun v -> if v = 2 then 4 else 1))

let test_longest_path_empty () =
  check "empty graph" 0
    (Digraph.Topo.longest_path_nodes (G.empty 0) ~weight:(fun _ -> 1))

(* ------------------------------------------------------------------ *)
(* Scc                                                                  *)
(* ------------------------------------------------------------------ *)

let test_scc_two_components () =
  let g = two_sccs () in
  let comps = Oracle.Scc.components g in
  Alcotest.(check (list (list int))) "components in reverse topo order"
    [ [ 3; 4 ]; [ 0; 1; 2 ] ]
    comps

let test_scc_dag () =
  let g = diamond () in
  check "all singletons" 4 (List.length (Oracle.Scc.components g));
  check "no nontrivial" 0 (List.length (Oracle.Scc.nontrivial g))

let test_scc_self_loop_nontrivial () =
  let g = G.create ~n:2 [ edge 0 0 () ] in
  Alcotest.(check (list (list int))) "self loop is a cycle" [ [ 0 ] ]
    (Oracle.Scc.nontrivial g)

let test_strongly_connected () =
  let ring = G.create ~n:3 [ edge 0 1 (); edge 1 2 (); edge 2 0 () ] in
  check_bool "ring strongly connected" true
    (Oracle.Scc.is_strongly_connected ring);
  check_bool "diamond not" false
    (Oracle.Scc.is_strongly_connected (G.map_labels (fun _ -> ()) (diamond ())))

let test_condensation () =
  let g = two_sccs () in
  let dag = Oracle.Scc.condensation g in
  check "two meta nodes" 2 (G.n_nodes dag);
  check "one bridge" 1 (G.n_edges dag);
  check_bool "condensation is a DAG" true (Digraph.Topo.is_dag dag)

let test_component_of () =
  let g = two_sccs () in
  let owner = Oracle.Scc.component_of g in
  check_bool "0,1,2 together" true
    (owner.(0) = owner.(1) && owner.(1) = owner.(2));
  check_bool "3,4 together" true (owner.(3) = owner.(4));
  check_bool "separate" true (owner.(0) <> owner.(3))

(* ------------------------------------------------------------------ *)
(* Paths                                                                *)
(* ------------------------------------------------------------------ *)

let weighted () =
  G.create ~n:5
    [
      edge 0 1 4; edge 0 2 1; edge 2 1 2; edge 1 3 1; edge 2 3 5; edge 3 4 3;
    ]

let dijkstra g = Digraph.Paths.dijkstra_tree g ~weight:(fun e -> e.G.label) ~src:0

let test_dijkstra () =
  let d, _ = dijkstra (weighted ()) in
  Alcotest.(check (array int)) "distances" [| 0; 3; 1; 4; 7 |] d

let test_dijkstra_unreachable () =
  let d, parent = dijkstra (G.create ~n:3 [ edge 0 1 1 ]) in
  check "unreachable" Digraph.Paths.unreachable d.(2);
  check "no parent" (-1) parent.(2)

let test_dijkstra_negative_rejected () =
  let g = G.create ~n:2 [ edge 0 1 (-1) ] in
  Alcotest.check_raises "negative weight"
    (Invalid_argument "Digraph.Paths.dijkstra: negative edge weight") (fun () ->
      ignore (dijkstra g))

(* The tree of the path 0 -> 2 -> 1 -> 3 -> 4. *)
let test_dijkstra_path () =
  let _, parent = dijkstra (weighted ()) in
  Alcotest.(check (array int)) "parents" [| -1; 2; 0; 1; 3 |] parent

let test_negative_cycle_detected () =
  let g = G.create ~n:2 [ edge 0 1 1; edge 1 0 (-2) ] in
  check_bool "no potentials" true
    (Digraph.Paths.feasible_potentials g ~weight:(fun e -> e.G.label) = None)

let test_feasible_potentials () =
  let g = G.create ~n:3 [ edge 0 1 2; edge 1 2 (-1); edge 2 0 0 ] in
  match Digraph.Paths.feasible_potentials g ~weight:(fun e -> e.G.label) with
  | None -> Alcotest.fail "system is feasible"
  | Some p ->
      G.iter_edges
        (fun e ->
          check_bool "constraint satisfied" true
            (p.(e.G.dst) - p.(e.G.src) <= e.G.label))
        g

(* ------------------------------------------------------------------ *)
(* Cycles                                                               *)
(* ------------------------------------------------------------------ *)

let test_cycles_dag () =
  check "no cycles in a DAG" 0
    (List.length (Oracle.Cycles.elementary (diamond ())));
  check_bool "has_cycle false" false (Oracle.Cycles.has_cycle (diamond ()))

let test_cycles_simple () =
  let g = G.create ~n:3 [ edge 0 1 (); edge 1 2 (); edge 2 0 () ] in
  Alcotest.(check (list (list int))) "one triangle" [ [ 0; 1; 2 ] ]
    (Oracle.Cycles.elementary g)

let test_cycles_two_loops () =
  let g = two_sccs () in
  Alcotest.(check (list (list int))) "two cycles" [ [ 0; 1; 2 ]; [ 3; 4 ] ]
    (Oracle.Cycles.elementary g)

let test_cycles_self_loop () =
  let g = G.create ~n:2 [ edge 0 0 (); edge 0 1 (); edge 1 0 () ] in
  Alcotest.(check (list (list int))) "self loop and 2-cycle"
    [ [ 0 ]; [ 0; 1 ] ]
    (Oracle.Cycles.elementary g)

let test_cycles_complete3 () =
  (* K3 with both directions: cycles are 3 two-cycles and 2 triangles. *)
  let g =
    G.create ~n:3
      [
        edge 0 1 (); edge 1 0 (); edge 1 2 (); edge 2 1 (); edge 0 2 ();
        edge 2 0 ();
      ]
  in
  check "5 elementary cycles" 5 (List.length (Oracle.Cycles.elementary g))

let test_cycles_bounded () =
  let g =
    G.create ~n:3
      [
        edge 0 1 (); edge 1 0 (); edge 1 2 (); edge 2 1 (); edge 0 2 ();
        edge 2 0 ();
      ]
  in
  check "stops at bound" 2
    (List.length (Oracle.Cycles.elementary ~max_cycles:2 g))

let test_cycle_edges () =
  let g = G.create ~n:3 [ edge 0 1 "x"; edge 1 2 "y"; edge 2 0 "z" ] in
  let es = Oracle.Cycles.cycle_edges g [ 0; 1; 2 ] in
  Alcotest.(check (list string)) "edge labels around the cycle"
    [ "x"; "y"; "z" ]
    (List.map (fun e -> e.G.label) es)

let test_fold_cycle_weight () =
  let g = G.create ~n:2 [ edge 0 1 3; edge 1 0 4 ] in
  check "sum" 7
    (Oracle.Cycles.fold_cycle_weight g [ 0; 1 ]
       ~f:(fun acc e -> acc + e.G.label)
       ~init:0)

(* ------------------------------------------------------------------ *)
(* Karp                                                                 *)
(* ------------------------------------------------------------------ *)

let test_max_ratio_acyclic () =
  check_bool "acyclic -> None" true
    (Digraph.Karp.maximum_cycle_ratio
       (G.map_labels (fun _ -> 1) (diamond ()))
       ~num:(fun e -> e.G.label) ~den:(fun e -> e.G.label)
    = None)

let test_max_ratio () =
  (* Two cycles: ratio 5/1 and 4/2. *)
  let g =
    G.create ~n:4
      [
        edge 0 1 (5, 1); edge 1 0 (0, 0);
        edge 2 3 (4, 1); edge 3 2 (0, 1);
      ]
  in
  match
    Digraph.Karp.maximum_cycle_ratio g
      ~num:(fun e -> fst e.G.label)
      ~den:(fun e -> snd e.G.label)
  with
  | None -> Alcotest.fail "has cycles"
  | Some (t, d) -> check_bool "ratio 5" true (t = 5 * d)

let test_max_ratio_parallel_edges () =
  (* Regression: two parallel back-edges with different denominators give
     two distinct circuits over the same node cycle; the maximum must
     consider both (here 5/1, not 5/2). *)
  let g =
    G.create ~n:2 [ edge 0 1 (5, 0); edge 1 0 (0, 2); edge 1 0 (0, 1) ]
  in
  (match
     Digraph.Karp.maximum_cycle_ratio g
       ~num:(fun e -> fst e.G.label)
       ~den:(fun e -> snd e.G.label)
   with
  | None -> Alcotest.fail "has cycles"
  | Some (t, d) -> check_bool "picks the 1-delay variant" true (t = 5 * d));
  check "variants enumerated" 2
    (List.length (Oracle.Cycles.all_cycle_edges g [ 0; 1 ]))

let test_all_cycle_edges_cap () =
  let g =
    G.create ~n:2
      [ edge 0 1 "a"; edge 0 1 "b"; edge 0 1 "c"; edge 1 0 "x"; edge 1 0 "y" ]
  in
  check "full product" 6 (List.length (Oracle.Cycles.all_cycle_edges g [ 0; 1 ]));
  check "capped" 4
    (List.length (Oracle.Cycles.all_cycle_edges ~max_variants:4 g [ 0; 1 ]))

(* ------------------------------------------------------------------ *)
(* Dot                                                                  *)
(* ------------------------------------------------------------------ *)

let contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let test_dot_output () =
  let g = G.create ~n:2 [ edge 0 1 () ] in
  let dot = Digraph.Dot.to_dot ~name:"t" g in
  check_bool "digraph header" true
    (String.length dot > 0 && String.sub dot 0 11 = "digraph \"t\"");
  check_bool "edge rendered" true (contains dot "n0 -> n1")

let test_dot_escaping () =
  let g = G.create ~n:1 [] in
  let dot =
    Digraph.Dot.to_dot ~node_label:(fun _ -> "say \"hi\"") g
  in
  check_bool "quotes escaped" true (contains dot "say \\\"hi\\\"")

(* ------------------------------------------------------------------ *)
(* Extra edge cases                                                     *)
(* ------------------------------------------------------------------ *)

let test_karp_multigraph_self_loops () =
  (* two parallel self-loops: the max ratio is the better one *)
  let g = G.create ~n:1 [ edge 0 0 (7, 1); edge 0 0 (3, 1) ] in
  match
    Digraph.Karp.maximum_cycle_ratio g
      ~num:(fun e -> fst e.G.label)
      ~den:(fun e -> snd e.G.label)
  with
  | None -> Alcotest.fail "has cycles"
  | Some (t, d) -> check_bool "better loop" true (t = 7 * d)

(* The cycle enumeration the parametric search replaced, kept as the
   reference: one ratio per elementary circuit, parallel-edge choices
   included. *)
let enumerated_max_ratio g ~num ~den =
  let ratios =
    Oracle.Cycles.elementary ~max_cycles:1_000_000 g
    |> List.concat_map
         (Oracle.Cycles.all_cycle_edges ~max_variants:1_000_000 g)
    |> List.map (fun es ->
           let sum f = List.fold_left (fun acc e -> acc + f e) 0 es in
           (sum num, sum den))
  in
  if List.exists (fun (_, d) -> d <= 0) ratios then `Raises
  else
    match ratios with
    | [] -> `Acyclic
    | r :: rest ->
        `Ratio
          (List.fold_left
             (fun (a, b) (c, d) -> if a * d >= c * b then (a, b) else (c, d))
             r rest)

let test_max_ratio_matches_enumeration =
  QCheck_alcotest.to_alcotest ~long:false
    (QCheck.Test.make ~count:300
       ~name:"max cycle ratio = enumeration (parallel edges, self-loops)"
       (QCheck.int_range 0 100_000)
       (fun seed ->
         let rng = Random.State.make [| seed; 0x4a7 |] in
         let n = 1 + Random.State.int rng 6 in
         (* half the graphs may hold zero-delay cycles (and must raise);
            the other half have positive delays and any numerators *)
         let may_raise = Random.State.bool rng in
         let label () =
           if may_raise then
             (1 + Random.State.int rng 9, Random.State.int rng 4)
           else (Random.State.int rng 13 - 3, 1 + Random.State.int rng 3)
         in
         let edges =
           List.concat
             (List.init n (fun a ->
                  List.concat
                    (List.init n (fun b ->
                         if Random.State.float rng 1.0 < 0.35 then
                           List.init (1 + Random.State.int rng 2) (fun _ ->
                               edge a b (label ()))
                         else []))))
         in
         let g = G.create ~n edges in
         let num e = fst e.G.label and den e = snd e.G.label in
         match
           ( enumerated_max_ratio g ~num ~den,
             Digraph.Karp.maximum_cycle_ratio g ~num ~den )
         with
         | `Raises, _ -> QCheck.Test.fail_reportf "expected a raise"
         | `Acyclic, None -> true
         | `Ratio (a, b), Some (c, d) -> d > 0 && a * d = c * b
         | _ -> false
         | exception Invalid_argument _ ->
             enumerated_max_ratio g ~num ~den = `Raises))

(* The search's last witness is an elementary cycle whose own sums are
   the maximum ratio, on graphs with parallel edges and self-loops. *)
let test_critical_cycle_witness =
  QCheck_alcotest.to_alcotest ~long:false
    (QCheck.Test.make ~count:300
       ~name:"critical cycle: elementary witness attaining the max ratio"
       (QCheck.int_range 0 100_000)
       (fun seed ->
         let rng = Random.State.make [| seed; 0xc1c |] in
         let n = 1 + Random.State.int rng 7 in
         let edges =
           List.concat
             (List.init n (fun a ->
                  List.concat
                    (List.init n (fun b ->
                         if Random.State.float rng 1.0 < 0.3 then
                           List.init (1 + Random.State.int rng 2) (fun _ ->
                               edge a b
                                 ( Random.State.int rng 13 - 3,
                                   1 + Random.State.int rng 3 ))
                         else []))))
         in
         let g = G.create ~n edges in
         let num e = fst e.G.label and den e = snd e.G.label in
         match
           ( Digraph.Karp.critical_cycle g ~num ~den,
             Digraph.Karp.maximum_cycle_ratio g ~num ~den )
         with
         | None, None -> not (Oracle.Cycles.has_cycle g)
         | Some ((p, q), cycle), Some ratio ->
             let sum f = List.fold_left (fun acc e -> acc + f e) 0 cycle in
             let srcs = List.map (fun e -> e.G.src) cycle in
             let next = List.tl srcs @ [ List.hd srcs ] in
             (p, q) = ratio
             && (sum num, sum den) = (p, q)
             && List.for_all2 (fun e v -> e.G.dst = v) cycle next
             && List.length (List.sort_uniq compare srcs) = List.length srcs
         | _ -> false))

(* A cycle whose denominator sum is not positive raises, whether the
   search meets it as a witness or never finds a positive cycle at all. *)
let test_max_ratio_rejects_non_positive_denominator () =
  let rejects name g =
    Alcotest.check_raises name
      (Invalid_argument
         "Digraph.Karp.maximum_cycle_ratio: non-positive cycle denominator")
      (fun () ->
        ignore
          (Digraph.Karp.maximum_cycle_ratio g
             ~num:(fun e -> fst e.G.label)
             ~den:(fun e -> snd e.G.label)))
  in
  rejects "zero-delay cycle met as a witness"
    (G.create ~n:2 [ edge 0 1 (3, 0); edge 1 0 (2, 0) ]);
  rejects "no positive cycle anywhere"
    (G.create ~n:2 [ edge 0 1 (1, 1); edge 1 0 (1, -2) ])

(* A graph read back through every accessor against the one edge list
   it must equal: the edge list, each node's out- and in-edges as that
   list filtered (order included), and the degrees. *)
let agrees_with_edge_list g ~n reference =
  let triples l = List.map (fun e -> (e.G.src, e.G.dst, e.G.label)) l in
  let from v = List.filter (fun e -> e.G.src = v) reference in
  let into v = List.filter (fun e -> e.G.dst = v) reference in
  G.n_nodes g = n
  && G.n_edges g = List.length reference
  && triples (G.edges g) = triples reference
  && List.for_all
       (fun v ->
         triples (G.succ g v) = triples (from v)
         && triples (G.pred g v) = triples (into v)
         && G.out_degree g v = List.length (from v)
         && G.in_degree g v = List.length (into v))
       (List.init n Fun.id)

(* Random multigraphs (parallel edges, self-loops, isolated nodes, the
   empty graph), built by [create]; each update is checked against the
   same edit of the edge list, and the input graph must be left as it
   was. *)
let test_adjacency_matches_edge_list =
  QCheck_alcotest.to_alcotest ~long:false
    (QCheck.Test.make ~count:300
       ~name:"adjacency = filtered edge list"
       (QCheck.int_range 0 1_000_000)
       (fun seed ->
         let rng = Random.State.make [| seed; 0x9a7f |] in
         let n = Random.State.int rng 8 in
         let m = if n = 0 then 0 else Random.State.int rng 24 in
         let reference =
           List.init m (fun i ->
               edge (Random.State.int rng n) (Random.State.int rng n) i)
         in
         let relabel e = (1000 * e.G.label) + 1 in
         let keep e = e.G.label mod 3 <> 0 in
         let g = G.create ~n reference in
         agrees_with_edge_list g ~n reference
         && agrees_with_edge_list (G.map_labels relabel g) ~n
              (List.map (fun e -> { e with G.label = relabel e }) reference)
         && agrees_with_edge_list (G.filter_edges keep g) ~n
              (List.filter keep reference)
         && agrees_with_edge_list g ~n reference))

(* Reads return the stored lists: 10^4 calls of each allocate nothing. *)
let test_reads_allocate_nothing () =
  let n = 50 in
  let g = G.create ~n (List.init 200 (fun i -> edge (i mod n) (i * 7 mod n) i)) in
  let before = Gc.minor_words () in
  for i = 1 to 10_000 do
    let v = i mod n in
    ignore (Sys.opaque_identity (G.succ g v));
    ignore (Sys.opaque_identity (G.pred g v));
    ignore (Sys.opaque_identity (G.edges g))
  done;
  let words = Gc.minor_words () -. before in
  check "minor words allocated" 0 (int_of_float words)

let () =
  Alcotest.run "digraph"
    [
      ( "graph",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "empty zero" `Quick test_empty_zero;
          Alcotest.test_case "empty negative" `Quick test_empty_negative;
          Alcotest.test_case "create range" `Quick test_create_out_of_range;
          test_adjacency_matches_edge_list;
          Alcotest.test_case "reads allocate nothing" `Quick
            test_reads_allocate_nothing;
          Alcotest.test_case "succ/pred" `Quick test_succ_pred;
          Alcotest.test_case "insertion order" `Quick test_insertion_order;
          Alcotest.test_case "multigraph" `Quick test_multigraph;
          Alcotest.test_case "map_labels" `Quick test_map_labels;
          Alcotest.test_case "filter_edges" `Quick test_filter_edges;
        ] );
      ( "topo",
        [
          Alcotest.test_case "sort" `Quick test_topo_sort;
          Alcotest.test_case "cyclic" `Quick test_topo_cyclic;
          Alcotest.test_case "cyclic two sccs" `Quick test_topo_respects_edges;
          test_topo_sort_matches_reference;
          Alcotest.test_case "find_cycle" `Quick test_find_cycle;
          Alcotest.test_case "longest path" `Quick test_longest_path;
          Alcotest.test_case "longest path empty" `Quick test_longest_path_empty;
        ] );
      ( "scc",
        [
          Alcotest.test_case "two components" `Quick test_scc_two_components;
          Alcotest.test_case "dag" `Quick test_scc_dag;
          Alcotest.test_case "self loop" `Quick test_scc_self_loop_nontrivial;
          Alcotest.test_case "strong connectivity" `Quick test_strongly_connected;
          Alcotest.test_case "condensation" `Quick test_condensation;
          Alcotest.test_case "component_of" `Quick test_component_of;
        ] );
      ( "paths",
        [
          Alcotest.test_case "dijkstra" `Quick test_dijkstra;
          Alcotest.test_case "dijkstra unreachable" `Quick test_dijkstra_unreachable;
          Alcotest.test_case "dijkstra negative" `Quick test_dijkstra_negative_rejected;
          Alcotest.test_case "dijkstra path" `Quick test_dijkstra_path;
          Alcotest.test_case "negative cycle" `Quick test_negative_cycle_detected;
          Alcotest.test_case "feasible potentials" `Quick test_feasible_potentials;
        ] );
      ( "cycles",
        [
          Alcotest.test_case "dag" `Quick test_cycles_dag;
          Alcotest.test_case "triangle" `Quick test_cycles_simple;
          Alcotest.test_case "two loops" `Quick test_cycles_two_loops;
          Alcotest.test_case "self loop" `Quick test_cycles_self_loop;
          Alcotest.test_case "K3" `Quick test_cycles_complete3;
          Alcotest.test_case "bounded" `Quick test_cycles_bounded;
          Alcotest.test_case "cycle edges" `Quick test_cycle_edges;
          Alcotest.test_case "fold weight" `Quick test_fold_cycle_weight;
        ] );
      ( "karp",
        [
          Alcotest.test_case "acyclic" `Quick test_max_ratio_acyclic;
          Alcotest.test_case "max ratio exact" `Quick test_max_ratio;
          Alcotest.test_case "max ratio parallel edges" `Quick
            test_max_ratio_parallel_edges;
          Alcotest.test_case "cycle edge variants cap" `Quick
            test_all_cycle_edges_cap;
          test_max_ratio_matches_enumeration;
          test_critical_cycle_witness;
          Alcotest.test_case "max ratio rejects non-positive denominators"
            `Quick test_max_ratio_rejects_non_positive_denominator;
        ] );
      ( "dot",
        [
          Alcotest.test_case "output" `Quick test_dot_output;
          Alcotest.test_case "escaping" `Quick test_dot_escaping;
        ] );
      ( "edge-cases",
        [
          Alcotest.test_case "karp parallel self loops" `Quick
            test_karp_multigraph_self_loops;
        ] );
    ]
