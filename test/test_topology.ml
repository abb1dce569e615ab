(* Unit tests for the topology substrate: exact distances on every
   standard architecture, communication costs, routing, relabelling. *)

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Links incident on processor [p]. *)
let degree t p =
  List.length (List.filter (fun (a, b) -> a = p || b = p) (Topology.links t))

(* ------------------------------------------------------------------ *)
(* Constructors and exact hop distances                                 *)
(* ------------------------------------------------------------------ *)

let test_linear_array () =
  let t = Topology.linear_array 8 in
  check "n" 8 (Topology.n_processors t);
  check "ends" 7 (Topology.hops t 0 7);
  check "adjacent" 1 (Topology.hops t 3 4);
  check "self" 0 (Topology.hops t 2 2);
  check "diameter" 7 (Topology.diameter t);
  check "links" 7 (List.length (Topology.links t))

let test_linear_array_single () =
  let t = Topology.linear_array 1 in
  check "one node" 1 (Topology.n_processors t);
  check "diameter" 0 (Topology.diameter t)

let test_ring () =
  let t = Topology.ring 8 in
  check "wrap shortcut" 1 (Topology.hops t 0 7);
  check "across" 4 (Topology.hops t 0 4);
  check "diameter" 4 (Topology.diameter t);
  check "links" 8 (List.length (Topology.links t))

let test_ring_small () =
  (* Rings below 3 nodes degenerate to linear arrays. *)
  let t = Topology.ring 2 in
  check "two nodes one link" 1 (List.length (Topology.links t))

let test_complete () =
  let t = Topology.complete 8 in
  check "diameter" 1 (Topology.diameter t);
  check "links" 28 (List.length (Topology.links t));
  for p = 0 to 7 do
    check "degree" 7 (degree t p)
  done

let test_mesh_2x4 () =
  let t = Topology.mesh ~rows:2 ~cols:4 in
  (* row-major: 0 1 2 3 / 4 5 6 7 *)
  check "corner to corner" 4 (Topology.hops t 0 7);
  check "manhattan" 2 (Topology.hops t 0 5);
  check "diameter" 4 (Topology.diameter t);
  check "links" 10 (List.length (Topology.links t))

let test_mesh_2x2_paper_layout () =
  let t =
    Topology.relabel (Topology.mesh ~rows:2 ~cols:2)
      Workloads.Examples.fig1_mesh_permutation
  in
  (* Paper Figure 1(a): PE3 (index 2) diagonal from PE1 (index 0). *)
  check "PE1-PE2" 1 (Topology.hops t 0 1);
  check "PE1-PE4" 1 (Topology.hops t 0 3);
  check "PE1-PE3 diagonal" 2 (Topology.hops t 0 2)

let test_torus () =
  let t = Topology.torus ~rows:3 ~cols:3 in
  check "wrap row" 1 (Topology.hops t 0 2);
  check "wrap col" 1 (Topology.hops t 0 6);
  check "diameter" 2 (Topology.diameter t)

let test_torus_no_duplicate_links_2xn () =
  (* A 2-row torus must not double the existing vertical links. *)
  let t = Topology.torus ~rows:2 ~cols:4 in
  let canonical = Topology.links t in
  check "links unique" (List.length canonical)
    (List.length (List.sort_uniq compare canonical))

let test_hypercube () =
  let t = Topology.hypercube 3 in
  check "n" 8 (Topology.n_processors t);
  check "hamming 0-7" 3 (Topology.hops t 0 7);
  check "hamming 0-3" 2 (Topology.hops t 0 3);
  check "diameter" 3 (Topology.diameter t);
  check "links" 12 (List.length (Topology.links t));
  for p = 0 to 7 do
    check "degree = dimension" 3 (degree t p)
  done

let test_hypercube_dimension_zero () =
  let t = Topology.hypercube 0 in
  check "single node" 1 (Topology.n_processors t)

let test_hypercube_bad_dimension () =
  Alcotest.check_raises "too large"
    (Invalid_argument "Topology.hypercube: dimension out of range") (fun () ->
      ignore (Topology.hypercube 17))

let test_star () =
  let t = Topology.star 6 in
  check "hub to leaf" 1 (Topology.hops t 0 5);
  check "leaf to leaf" 2 (Topology.hops t 1 5);
  check "diameter" 2 (Topology.diameter t)

let test_binary_tree () =
  let t = Topology.binary_tree 7 in
  check "root to leaf" 2 (Topology.hops t 0 6);
  check "leaf to leaf across" 4 (Topology.hops t 3 6);
  check "diameter" 4 (Topology.diameter t)

let test_of_links_disconnected () =
  Alcotest.check_raises "disconnected"
    (Invalid_argument
       "Topology.of_links (broken): processors 0 and 2 are disconnected")
    (fun () -> ignore (Topology.of_links ~name:"broken" ~n:3 [ (0, 1) ]))

let test_of_links_self_loop () =
  Alcotest.check_raises "self loop"
    (Invalid_argument "Topology.of_links: self-loop link") (fun () ->
      ignore (Topology.of_links ~name:"x" ~n:2 [ (1, 1) ]))

let test_of_links_dedup () =
  let t = Topology.of_links ~name:"dup" ~n:2 [ (0, 1); (1, 0); (0, 1) ] in
  check "links deduplicated" 1 (List.length (Topology.links t))

(* ------------------------------------------------------------------ *)
(* Communication cost (paper Definition 3.5)                            *)
(* ------------------------------------------------------------------ *)

let test_comm_cost_paper_example () =
  (* Paper §2 (Definition 3.5): sender two links away, volume 3 ->
     M = 2 * 3 = 6 on the 2x2 mesh's diagonal. *)
  let t =
    Topology.relabel (Topology.mesh ~rows:2 ~cols:2)
      Workloads.Examples.fig1_mesh_permutation
  in
  let comm = Cyclo.Comm.of_topology t in
  check "hops * volume" 6 (Cyclo.Comm.cost comm ~src:0 ~dst:2 ~volume:3);
  check "zero on same processor" 0
    (Cyclo.Comm.cost comm ~src:1 ~dst:1 ~volume:9)

let test_comm_cost_negative_volume () =
  let comm = Cyclo.Comm.of_topology (Topology.complete 2) in
  Alcotest.check_raises "negative volume"
    (Invalid_argument "Comm.cost: negative volume") (fun () ->
      ignore (Cyclo.Comm.cost comm ~src:0 ~dst:1 ~volume:(-1)))

(* ------------------------------------------------------------------ *)
(* Routing                                                              *)
(* ------------------------------------------------------------------ *)

let test_route_endpoints_and_length () =
  let t = Topology.mesh ~rows:3 ~cols:3 in
  let r = Topology.route t ~src:0 ~dst:8 in
  (match r with
  | [] -> Alcotest.fail "route is never empty"
  | first :: _ ->
      check "starts at src" 0 first;
      check "ends at dst" 8 (List.nth r (List.length r - 1)));
  check "length = hops + 1" (Topology.hops t 0 8 + 1) (List.length r)

let test_route_consecutive_links () =
  let t = Topology.ring 6 in
  let r = Topology.route t ~src:1 ~dst:4 in
  let rec ok = function
    | a :: (b :: _ as rest) -> Topology.hops t a b = 1 && ok rest
    | _ -> true
  in
  check_bool "every step is one link" true (ok r)

let test_route_self () =
  let t = Topology.complete 4 in
  Alcotest.(check (list int)) "self route" [ 2 ] (Topology.route t ~src:2 ~dst:2)

(* A route is read off a stored tree: the only words it allocates are
   its list cells (three each), whatever the machine. *)
let test_route_allocates_only_its_result () =
  let t = Topology.mesh ~rows:4 ~cols:4 in
  let calls = 10_000 and cells = ref 0 in
  let before = Gc.minor_words () in
  for i = 0 to calls - 1 do
    let r = Topology.route t ~src:(i mod 16) ~dst:(i / 16 mod 16) in
    cells := !cells + List.length r
  done;
  let words = Gc.minor_words () -. before in
  let budget = (3 * !cells) + (4 * calls) in
  check_bool
    (Printf.sprintf "%.0f minor words for %d cells" words !cells)
    true
    (words <= float_of_int budget)

(* Every route the simulator can walk, pinned: the MD5 of one
   "machine src dst route hops" line per ordered processor pair, over the
   six machines of perfbench's suite-simulate workload, three more
   [of_spec] shapes, a weighted machine whose routes tie on cost and a
   degraded mesh.  The ties pin which of the equal-cost routes is taken,
   so a change to how routes are stored or searched shows here. *)
let pinned_machines () =
  let spec s = Result.get_ok (Topology.of_spec s) in
  List.map spec
    [
      "linear:8"; "ring:8"; "mesh:2x4"; "mesh:4x4"; "hypercube:3";
      "complete:8"; "torus:4x4"; "star:8"; "tree:15";
    ]
  @ [
      Topology.of_weighted_links ~name:"ties" ~n:6
        [
          (0, 1, 1); (1, 3, 2); (0, 2, 2); (2, 3, 1); (3, 4, 1); (4, 5, 3);
          (3, 5, 4); (0, 5, 7); (1, 2, 1);
        ];
      snd
        (Result.get_ok
           (Cyclo.Degrade.sub_topology (spec "mesh:4x4") ~failed_pes:[ 5 ]
              ~failed_links:[ (9, 10); (2, 3) ]));
    ]

let test_route_pinned () =
  let lines =
    List.concat_map
      (fun t ->
        let n = Topology.n_processors t in
        List.concat
          (List.init n (fun p ->
               List.init n (fun q ->
                   Printf.sprintf "%s %d %d %s %d" (Topology.name t) p q
                     (String.concat "-"
                        (List.map string_of_int (Topology.route t ~src:p ~dst:q)))
                     (Topology.hops t p q)))))
      (pinned_machines ())
  in
  Alcotest.(check string)
    "routes and hops" "20790f72d25eac5e4db61995744bd4bf"
    (Digest.to_hex (Digest.string (String.concat "\n" lines)))

(* ------------------------------------------------------------------ *)
(* Properties of distances                                              *)
(* ------------------------------------------------------------------ *)

let all_standard () =
  [
    Topology.linear_array 8;
    Topology.ring 8;
    Topology.complete 8;
    Topology.mesh ~rows:2 ~cols:4;
    Topology.torus ~rows:2 ~cols:4;
    Topology.hypercube 3;
    Topology.star 8;
    Topology.binary_tree 8;
  ]

let test_distance_symmetry () =
  List.iter
    (fun t ->
      let n = Topology.n_processors t in
      for p = 0 to n - 1 do
        for q = 0 to n - 1 do
          check
            (Printf.sprintf "%s symmetric %d %d" (Topology.name t) p q)
            (Topology.hops t p q) (Topology.hops t q p)
        done
      done)
    (all_standard ())

let test_triangle_inequality () =
  List.iter
    (fun t ->
      let n = Topology.n_processors t in
      for p = 0 to n - 1 do
        for q = 0 to n - 1 do
          for r = 0 to n - 1 do
            check_bool
              (Printf.sprintf "%s triangle" (Topology.name t))
              true
              (Topology.hops t p r <= Topology.hops t p q + Topology.hops t q r)
          done
        done
      done)
    (all_standard ())

let test_max_degree () =
  let max_degree t =
    List.fold_left max 0 (List.init (Topology.n_processors t) (degree t))
  in
  check "mesh interior degree" 4
    (max_degree (Topology.mesh ~rows:3 ~cols:3));
  check "star hub" 7 (max_degree (Topology.star 8))

(* ------------------------------------------------------------------ *)
(* Relabel                                                              *)
(* ------------------------------------------------------------------ *)

let test_relabel_identity () =
  let t = Topology.mesh ~rows:2 ~cols:2 in
  let t' = Topology.relabel t [| 0; 1; 2; 3 |] in
  check "same size" (Topology.n_processors t) (Topology.n_processors t');
  Alcotest.(check (list (pair int int)))
    "same links" (Topology.links t) (Topology.links t')

let test_relabel_preserves_distances () =
  let t = Topology.mesh ~rows:2 ~cols:3 in
  let perm = [| 5; 4; 3; 2; 1; 0 |] in
  let t' = Topology.relabel t perm in
  for a = 0 to 5 do
    for b = 0 to 5 do
      check "distance preserved under renaming"
        (Topology.hops t perm.(a) perm.(b))
        (Topology.hops t' a b)
    done
  done

let test_relabel_not_permutation () =
  let t = Topology.complete 3 in
  Alcotest.check_raises "duplicate entries"
    (Invalid_argument "Topology.relabel: not a permutation") (fun () ->
      ignore (Topology.relabel t [| 0; 0; 1 |]))

let test_relabel_size_mismatch () =
  let t = Topology.complete 3 in
  Alcotest.check_raises "size"
    (Invalid_argument "Topology.relabel: permutation size mismatch") (fun () ->
      ignore (Topology.relabel t [| 0; 1 |]))

(* Outside input names machines; none over the cap is built, and a
   dimension too large to multiply is refused too (a max_int-row mesh
   would never finish building; one row more does not parse as an
   int). *)
let test_of_spec_cap () =
  List.iter
    (fun spec ->
      check_bool (spec ^ " refused") true
        (Result.is_error (Topology.of_spec spec)))
    [
      "hypercube:9";
      "complete:257";
      "linear:100000";
      "mesh:4611686018427387903x2";
      "mesh:4611686018427387904x2";
      "torus:2x4611686018427387903";
      "mesh:257x1";
    ];
  List.iter
    (fun (spec, ps) ->
      match Topology.of_spec spec with
      | Ok t -> check (spec ^ " processors") ps (Topology.n_processors t)
      | Error msg -> Alcotest.fail msg)
    [ ("hypercube:8", 256); ("linear:256", 256); ("mesh:16x16", 256) ]

let () =
  Alcotest.run "topology"
    [
      ( "constructors",
        [
          Alcotest.test_case "linear array" `Quick test_linear_array;
          Alcotest.test_case "linear array n=1" `Quick test_linear_array_single;
          Alcotest.test_case "ring" `Quick test_ring;
          Alcotest.test_case "ring small" `Quick test_ring_small;
          Alcotest.test_case "complete" `Quick test_complete;
          Alcotest.test_case "mesh 2x4" `Quick test_mesh_2x4;
          Alcotest.test_case "mesh 2x2 paper layout" `Quick
            test_mesh_2x2_paper_layout;
          Alcotest.test_case "torus" `Quick test_torus;
          Alcotest.test_case "torus 2-row links" `Quick
            test_torus_no_duplicate_links_2xn;
          Alcotest.test_case "hypercube" `Quick test_hypercube;
          Alcotest.test_case "hypercube d=0" `Quick test_hypercube_dimension_zero;
          Alcotest.test_case "hypercube bad d" `Quick test_hypercube_bad_dimension;
          Alcotest.test_case "star" `Quick test_star;
          Alcotest.test_case "binary tree" `Quick test_binary_tree;
          Alcotest.test_case "disconnected rejected" `Quick
            test_of_links_disconnected;
          Alcotest.test_case "self loop rejected" `Quick test_of_links_self_loop;
          Alcotest.test_case "duplicate links" `Quick test_of_links_dedup;
          Alcotest.test_case "spec processor cap" `Quick test_of_spec_cap;
        ] );
      ( "comm-cost",
        [
          Alcotest.test_case "paper example" `Quick test_comm_cost_paper_example;
          Alcotest.test_case "negative volume" `Quick test_comm_cost_negative_volume;
        ] );
      ( "routing",
        [
          Alcotest.test_case "endpoints and length" `Quick
            test_route_endpoints_and_length;
          Alcotest.test_case "consecutive links" `Quick test_route_consecutive_links;
          Alcotest.test_case "self" `Quick test_route_self;
          Alcotest.test_case "pinned" `Quick test_route_pinned;
          Alcotest.test_case "allocates only its result" `Quick
            test_route_allocates_only_its_result;
        ] );
      ( "distance-properties",
        [
          Alcotest.test_case "symmetry" `Quick test_distance_symmetry;
          Alcotest.test_case "triangle inequality" `Quick test_triangle_inequality;
          Alcotest.test_case "max degree" `Quick test_max_degree;
        ] );
      ( "relabel",
        [
          Alcotest.test_case "identity" `Quick test_relabel_identity;
          Alcotest.test_case "preserves distances" `Quick
            test_relabel_preserves_distances;
          Alcotest.test_case "not a permutation" `Quick test_relabel_not_permutation;
          Alcotest.test_case "size mismatch" `Quick test_relabel_size_mismatch;
        ] );
    ]
