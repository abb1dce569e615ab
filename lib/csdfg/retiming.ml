module G = Digraph.Graph

type r = int array

let identity g = Array.make (Csdfg.n_nodes g) 0

let retimed_delay (r : r) (e : Csdfg.attr G.edge) =
  e.G.label.Csdfg.delay + r.(e.G.src) - r.(e.G.dst)

let illegal_edges g r =
  List.filter (fun e -> retimed_delay r e < 0) (Csdfg.edges g)

let is_legal g r = illegal_edges g r = []

let apply g r =
  if Array.length r <> Csdfg.n_nodes g then
    invalid_arg "Retiming.apply: size mismatch";
  if not (is_legal g r) then invalid_arg "Retiming.apply: illegal retiming";
  let graph =
    G.map_labels
      (fun e -> { e.G.label with Csdfg.delay = retimed_delay r e })
      (Csdfg.graph g)
  in
  Csdfg.of_graph ~name:(Csdfg.name g)
    ~labels:(Array.init (Csdfg.n_nodes g) (Csdfg.label g))
    ~time:(Array.init (Csdfg.n_nodes g) (Csdfg.time g))
    graph

let clock_period g =
  (match Csdfg.validate g with
  | Ok () -> ()
  | Error _ -> invalid_arg "Retiming.clock_period: illegal CSDFG");
  Digraph.Topo.longest_path_nodes (Csdfg.zero_delay_graph g)
    ~weight:(Csdfg.time g)

(* W and D via Floyd-Warshall on lexicographic weights (delay, -time).
   For an edge u -> v the weight is (d(e), -t(u)); the path sum of the
   second component is -(time of path excluding the final node), so
   D(u,v) = t(v) - snd. *)
let wd_matrices g =
  let n = Csdfg.n_nodes g in
  let unreachable = Digraph.Paths.unreachable in
  let wd = Array.make_matrix n n (unreachable, 0) in
  for v = 0 to n - 1 do
    wd.(v).(v) <- (0, 0)
  done;
  List.iter
    (fun e ->
      let u = e.G.src and v = e.G.dst in
      let cand = (Csdfg.delay e, -Csdfg.time g u) in
      if u <> v && cand < wd.(u).(v) then wd.(u).(v) <- cand)
    (Csdfg.edges g);
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      let dik, tik = wd.(i).(k) in
      if dik < unreachable then
        for j = 0 to n - 1 do
          let dkj, tkj = wd.(k).(j) in
          if dkj < unreachable then begin
            let cand = (dik + dkj, tik + tkj) in
            if cand < wd.(i).(j) then wd.(i).(j) <- cand
          end
        done
    done
  done;
  let w = Array.make_matrix n n unreachable in
  let d = Array.make_matrix n n 0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let wij, negt = wd.(i).(j) in
      if wij < unreachable then begin
        w.(i).(j) <- wij;
        d.(i).(j) <- Csdfg.time g j - negt
      end
    done
  done;
  (w, d)

(* Difference constraints: r(v) - r(u) <= d(e) for every edge (legality),
   and r(v) - r(u) <= W(u,v) - 1 whenever D(u,v) > period.  Solved as
   shortest paths from a virtual source (Bellman-Ford potentials). *)
let feasible g ~period =
  let n = Csdfg.n_nodes g in
  let w, d = wd_matrices g in
  let unreachable = Digraph.Paths.unreachable in
  let constraints = ref [] in
  List.iter
    (fun e ->
      constraints :=
        { G.src = e.G.src; dst = e.G.dst; label = Csdfg.delay e } :: !constraints)
    (Csdfg.edges g);
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if w.(u).(v) < unreachable && d.(u).(v) > period then
        constraints := { G.src = u; dst = v; label = w.(u).(v) - 1 } :: !constraints
    done
  done;
  let cg = G.create ~n !constraints in
  match Digraph.Paths.feasible_potentials cg ~weight:(fun e -> e.G.label) with
  | None -> None
  | Some p -> Some p

let min_period g =
  let n = Csdfg.n_nodes g in
  let _, d = wd_matrices g in
  let candidates =
    let acc = ref [] in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        acc := d.(i).(j) :: !acc
      done
    done;
    List.sort_uniq compare (List.filter (fun x -> x > 0) !acc)
  in
  let arr = Array.of_list candidates in
  (* Binary search the smallest feasible candidate period. *)
  let rec search lo hi best =
    if lo > hi then best
    else begin
      let mid = (lo + hi) / 2 in
      match feasible g ~period:arr.(mid) with
      | Some r -> search lo (mid - 1) (Some (arr.(mid), r))
      | None -> search (mid + 1) hi best
    end
  in
  match search 0 (Array.length arr - 1) None with
  | Some result -> result
  | None ->
      (* Every graph is feasible at its own current period. *)
      (clock_period g, identity g)
