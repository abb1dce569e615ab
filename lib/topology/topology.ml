type t = {
  name : string;
  n : int;
  links : (int * int * int) list;
      (* canonical: (min, max, latency), sorted, deduped *)
  dist : int array array;  (* dist.(p).(q): minimum latency from p to q *)
  parent : int array array;
      (* parent.(p).(q): q's predecessor on p's shortest-path tree, -1 at p *)
}

let canonical_links links =
  links
  |> List.map (fun (a, b, w) -> (min a b, max a b, w))
  |> List.sort_uniq compare

(* The one shortest-path search: Dijkstra from every processor, whose
   trees give every distance and route the machine is asked for.  The
   link graph is dropped once they are built. *)
let of_weighted_links ~name ~n links =
  if n <= 0 then
    invalid_arg "Topology.of_links: need at least one processor";
  let links = canonical_links links in
  List.iter
    (fun (a, b, w) ->
      if a < 0 || b >= n then
        invalid_arg
          (Printf.sprintf "Topology.of_links: link (%d,%d) out of range" a b);
      if a = b then invalid_arg "Topology.of_links: self-loop link";
      if w <= 0 then
        invalid_arg
          (Printf.sprintf "Topology.of_links: link (%d,%d) latency %d <= 0" a b
             w))
    links;
  let graph =
    let edges =
      List.concat_map
        (fun (a, b, w) ->
          [ { Digraph.Graph.src = a; dst = b; label = w };
            { Digraph.Graph.src = b; dst = a; label = w } ])
        links
    in
    Digraph.Graph.create ~n edges
  in
  let trees =
    Array.init n (fun p ->
        Digraph.Paths.dijkstra_tree graph
          ~weight:(fun e -> e.Digraph.Graph.label)
          ~src:p)
  in
  let dist = Array.map fst trees and parent = Array.map snd trees in
  Array.iteri
    (fun p row ->
      Array.iteri
        (fun q d ->
          if d >= Digraph.Paths.unreachable then
            invalid_arg
              (Printf.sprintf
                 "Topology.of_links (%s): processors %d and %d are disconnected"
                 name p q))
        row)
    dist;
  { name; n; links; dist; parent }

let of_links ~name ~n links =
  of_weighted_links ~name ~n (List.map (fun (a, b) -> (a, b, 1)) links)

let linear_array n =
  of_links ~name:(Printf.sprintf "linear-array-%d" n) ~n
    (List.init (max 0 (n - 1)) (fun i -> (i, i + 1)))

let ring n =
  if n < 3 then linear_array n
  else
    of_links ~name:(Printf.sprintf "ring-%d" n) ~n
      ((n - 1, 0) :: List.init (n - 1) (fun i -> (i, i + 1)))

let complete n =
  let pairs = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      pairs := (i, j) :: !pairs
    done
  done;
  of_links ~name:(Printf.sprintf "complete-%d" n) ~n !pairs

let mesh_links ~rows ~cols ~wrap =
  if rows <= 0 || cols <= 0 then invalid_arg "Topology.mesh: empty dimensions";
  let id r c = (r * cols) + c in
  let acc = ref [] in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      if c + 1 < cols then acc := (id r c, id r (c + 1)) :: !acc
      else if wrap && cols > 2 then acc := (id r c, id r 0) :: !acc;
      if r + 1 < rows then acc := (id r c, id (r + 1) c) :: !acc
      else if wrap && rows > 2 then acc := (id r c, id 0 c) :: !acc
    done
  done;
  !acc

let mesh ~rows ~cols =
  of_links
    ~name:(Printf.sprintf "mesh-%dx%d" rows cols)
    ~n:(rows * cols)
    (mesh_links ~rows ~cols ~wrap:false)

let torus ~rows ~cols =
  of_links
    ~name:(Printf.sprintf "torus-%dx%d" rows cols)
    ~n:(rows * cols)
    (mesh_links ~rows ~cols ~wrap:true)

let hypercube d =
  if d < 0 || d > 16 then invalid_arg "Topology.hypercube: dimension out of range";
  let n = 1 lsl d in
  let acc = ref [] in
  for v = 0 to n - 1 do
    for bit = 0 to d - 1 do
      let w = v lxor (1 lsl bit) in
      if v < w then acc := (v, w) :: !acc
    done
  done;
  of_links ~name:(Printf.sprintf "%d-cube" d) ~n !acc

let star n =
  if n < 2 then invalid_arg "Topology.star: need at least two processors";
  of_links ~name:(Printf.sprintf "star-%d" n) ~n
    (List.init (n - 1) (fun i -> (0, i + 1)))

let binary_tree n =
  if n <= 0 then invalid_arg "Topology.binary_tree: empty";
  let acc = ref [] in
  for v = 0 to n - 1 do
    if (2 * v) + 1 < n then acc := (v, (2 * v) + 1) :: !acc;
    if (2 * v) + 2 < n then acc := (v, (2 * v) + 2) :: !acc
  done;
  if n = 1 then of_links ~name:"binary-tree-1" ~n []
  else of_links ~name:(Printf.sprintf "binary-tree-%d" n) ~n !acc

let name t = t.name
let n_processors t = t.n
let links t = List.map (fun (a, b, _) -> (a, b)) t.links
let weighted_links t = t.links

let check_proc t p ctx =
  if p < 0 || p >= t.n then
    invalid_arg (Printf.sprintf "Topology.%s: processor %d out of range" ctx p)

let hops t p q =
  check_proc t p "hops";
  check_proc t q "hops";
  t.dist.(p).(q)

(* Prepends [v] and its ancestors on a shortest-path tree, root first;
   top level, so a route allocates nothing but its cells. *)
let rec walk_up parent v acc =
  if v < 0 then acc else walk_up parent parent.(v) (v :: acc)

let route t ~src ~dst =
  check_proc t src "route";
  check_proc t dst "route";
  walk_up t.parent.(src) dst []

let diameter t =
  Array.fold_left
    (fun acc row -> Array.fold_left max acc row)
    0 t.dist

let dedup_stable l =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun x ->
      if Hashtbl.mem seen x then false
      else begin
        Hashtbl.add seen x ();
        true
      end)
    l

let induced t keep =
  let keep = dedup_stable keep in
  if keep = [] then invalid_arg "Topology.induced: empty processor set";
  List.iter (fun p -> check_proc t p "induced") keep;
  let renumber = Hashtbl.create 8 in
  List.iteri (fun i p -> Hashtbl.add renumber p i) keep;
  let links =
    List.filter_map
      (fun (a, b, w) ->
        match (Hashtbl.find_opt renumber a, Hashtbl.find_opt renumber b) with
        | Some a', Some b' -> Some (a', b', w)
        | _ -> None)
      t.links
  in
  of_weighted_links
    ~name:(Printf.sprintf "%s[%d]" t.name (List.length keep))
    ~n:(List.length keep) links

let relabel t perm =
  if Array.length perm <> t.n then
    invalid_arg "Topology.relabel: permutation size mismatch";
  let seen = Array.make t.n false in
  Array.iter
    (fun p ->
      if p < 0 || p >= t.n || seen.(p) then
        invalid_arg "Topology.relabel: not a permutation";
      seen.(p) <- true)
    perm;
  (* inverse.(old) = new *)
  let inverse = Array.make t.n 0 in
  Array.iteri (fun new_id old_id -> inverse.(old_id) <- new_id) perm;
  of_weighted_links ~name:(t.name ^ "-relabeled") ~n:t.n
    (List.map (fun (a, b, w) -> (inverse.(a), inverse.(b), w)) t.links)

let pp ppf t =
  Fmt.pf ppf "@[<v>%s: %d processors, %d links, diameter %d@]" t.name t.n
    (List.length t.links) (diameter t)

let pp_distance_matrix ppf t =
  let header =
    List.init t.n (fun i -> Printf.sprintf "pe%-3d" (i + 1))
    |> String.concat " "
  in
  Fmt.pf ppf "@[<v>%s hop distances:@,      %s" t.name header;
  Array.iteri
    (fun p row ->
      let cells =
        Array.to_list row
        |> List.map (Printf.sprintf "%-5d")
        |> String.concat " "
      in
      Fmt.pf ppf "@,pe%-3d %s" (p + 1) cells)
    t.dist;
  Fmt.pf ppf "@]"

(* Building a machine runs Dijkstra from every processor and keeps 2 P^2
   words (the distances and the tree parents), so a spec from outside is
   capped.  The largest machine the repo ships has 16 processors; under
   the cap, the densest, complete:256, takes about 0.2 s to build (on a
   2-vCPU VM, with fig7 scheduled on it). *)
let max_processors = 256

(* The CLI / RPC architecture spelling ("mesh:2x4", "ring:8", ...).
   Lives here rather than in the front end so the one-shot CLI and the
   ccsched-rpc service parse requests with the same code path. *)
let of_spec spec =
  let fail () =
    Error
      (Printf.sprintf
         "bad architecture %S; use linear:N ring:N complete:N mesh:RxC \
          torus:RxC hypercube:D star:N tree:N"
         spec)
  in
  let capped ps make =
    if ps > max_processors then
      Error
        (Printf.sprintf "architecture %S has more than %d processors" spec
           max_processors)
    else Ok (make ())
  in
  match String.split_on_char ':' spec with
  | [ kind; dims ] -> (
      let dim2 () =
        match String.split_on_char 'x' dims with
        | [ r; c ] -> (
            match (int_of_string_opt r, int_of_string_opt c) with
            | Some r, Some c when r > 0 && c > 0 -> Some (r, c)
            | _ -> None)
        | _ -> None
      in
      (* Each dimension is checked against the cap before the product is
         taken, so the count cannot overflow. *)
      let grid make =
        match dim2 () with
        | Some (r, c) ->
            let ps =
              if r > max_processors || c > max_processors then max_int
              else r * c
            in
            capped ps (fun () -> make ~rows:r ~cols:c)
        | None -> fail ()
      in
      match kind with
      | "mesh" -> grid mesh
      | "torus" -> grid torus
      | _ -> (
          match int_of_string_opt dims with
          | None -> fail ()
          | Some n -> (
              if n < 1 then fail ()
              else
                let sized make = capped n (fun () -> make n) in
                match kind with
                | "linear" -> sized linear_array
                | "ring" -> sized ring
                | "complete" -> sized complete
                | "hypercube" | "cube" ->
                    let ps =
                      if n < Sys.int_size - 1 then 1 lsl n else max_int
                    in
                    capped ps (fun () -> hypercube n)
                | "star" -> if n < 2 then fail () else sized star
                | "tree" -> sized binary_tree
                | _ -> fail ())))
  | _ -> fail ()
