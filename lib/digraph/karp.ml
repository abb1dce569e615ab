let inf = infinity

(* Karp's algorithm on one strongly connected subgraph given by [comp]. *)
let karp_on_component g ~weight comp =
  let n = Graph.n_nodes g in
  let in_comp = Array.make n false in
  List.iter (fun v -> in_comp.(v) <- true) comp;
  let k_max = List.length comp in
  (* d.(k).(v) = minimum weight of a k-edge walk inside the component
     ending at v, starting anywhere in the component. *)
  let d = Array.make_matrix (k_max + 1) n inf in
  List.iter (fun v -> d.(0).(v) <- 0.) comp;
  for k = 1 to k_max do
    let relax e =
      let u = e.Graph.src and v = e.Graph.dst in
      if in_comp.(u) && in_comp.(v) && d.(k - 1).(u) < inf then begin
        let w = d.(k - 1).(u) +. float_of_int (weight e) in
        if w < d.(k).(v) then d.(k).(v) <- w
      end
    in
    Graph.iter_edges relax g
  done;
  let best = ref inf in
  let consider v =
    if d.(k_max).(v) < inf then begin
      let worst = ref neg_infinity in
      for k = 0 to k_max - 1 do
        if d.(k).(v) < inf then begin
          let mean = (d.(k_max).(v) -. d.(k).(v)) /. float_of_int (k_max - k) in
          if mean > !worst then worst := mean
        end
      done;
      if !worst > neg_infinity && !worst < !best then best := !worst
    end
  in
  List.iter consider comp;
  !best

let minimum_cycle_mean g ~weight =
  let sccs = Scc.nontrivial g in
  if sccs = [] then None
  else begin
    let best =
      List.fold_left
        (fun acc comp -> min acc (karp_on_component g ~weight comp))
        inf sccs
    in
    if best < inf then Some best else None
  end

(* Parametric search for the maximum cycle ratio (Lawler's method with
   an exact integer test).  Given a current ratio [p/q], a cycle [C] has
   a larger ratio exactly when [q * num C - p * den C > 0], so a
   positive cycle under the integer weights [q * num e - p * den e] is a
   witness that [p/q] is too low; its own ratio becomes the next [p/q].
   The ratio rises strictly with every step, and the search stops when
   no positive cycle is left: the last witness is then critical.

   Positive cycles are found by Bellman-Ford (longest paths) from a
   virtual source at distance 0 to every node.  After each sweep the
   parent graph is checked: with strict relaxations every cycle in it is
   positive, and while one exists distances keep rising, which they
   cannot do forever without closing a parent cycle. *)
let maximum_cycle_ratio g ~num ~den =
  let n = Graph.n_nodes g in
  let edges = Array.of_list (Graph.edges g) in
  let src = Array.map (fun e -> e.Graph.src) edges in
  let dst = Array.map (fun e -> e.Graph.dst) edges in
  let nums = Array.map num edges and dens = Array.map den edges in
  let m = Array.length edges in
  let dist = Array.make n 0 and parent = Array.make n (-1) in
  let mark = Array.make n (-1) in
  (* A cycle of the parent graph as its edge indices, if there is one. *)
  let parent_cycle () =
    Array.fill mark 0 n (-1);
    let found = ref None and v0 = ref 0 in
    while !found = None && !v0 < n do
      let rec walk v =
        if mark.(v) = -1 && parent.(v) >= 0 then begin
          mark.(v) <- !v0;
          walk src.(parent.(v))
        end
        else if mark.(v) = !v0 then begin
          let rec collect u acc =
            let e = parent.(u) in
            if src.(e) = v then e :: acc else collect src.(e) (e :: acc)
          in
          found := Some (collect v [])
        end
      in
      walk !v0;
      incr v0
    done;
    !found
  in
  let positive_cycle ~p ~q =
    Array.fill dist 0 n 0;
    Array.fill parent 0 n (-1);
    let rec sweep () =
      let changed = ref false in
      for i = 0 to m - 1 do
        let d = dist.(src.(i)) + (q * nums.(i)) - (p * dens.(i)) in
        if d > dist.(dst.(i)) then begin
          dist.(dst.(i)) <- d;
          parent.(dst.(i)) <- i;
          changed := true
        end
      done;
      if not !changed then None
      else match parent_cycle () with Some c -> Some c | None -> sweep ()
    in
    sweep ()
  in
  let measure cycle =
    let sum a = List.fold_left (fun acc i -> acc + a.(i)) 0 cycle in
    let d = sum dens in
    if d <= 0 then
      invalid_arg "Digraph.Karp.maximum_cycle_ratio: non-positive cycle denominator";
    (sum nums, d)
  in
  let rec raise_bound (p, q) =
    match positive_cycle ~p ~q with
    | None -> (p, q)
    | Some cycle -> raise_bound (measure cycle)
  in
  (* Below every ratio: a cycle's numerator is at least minus the sum of
     all numerators' magnitudes, and its denominator at least 1. *)
  let floor = -1 - Array.fold_left (fun acc x -> acc + abs x) 0 nums in
  match positive_cycle ~p:floor ~q:1 with
  | Some cycle -> Some (raise_bound (measure cycle))
  | None ->
      if Cycles.has_cycle g then
        invalid_arg
          "Digraph.Karp.maximum_cycle_ratio: non-positive cycle denominator";
      None

(* Bellman-Ford over float weights seeded everywhere at 0; true when a
   negative cycle exists for weight (lambda * den - num), i.e. when some
   cycle has ratio > lambda. *)
let exists_cycle_above g ~num ~den lambda =
  let n = Graph.n_nodes g in
  let dist = Array.make n 0. in
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds <= n do
    changed := false;
    incr rounds;
    let relax e =
      let w = (lambda *. float_of_int (den e)) -. float_of_int (num e) in
      let d = dist.(e.Graph.src) +. w in
      if d < dist.(e.Graph.dst) -. 1e-12 then begin
        dist.(e.Graph.dst) <- d;
        changed := true
      end
    in
    Graph.iter_edges relax g
  done;
  !changed

let maximum_cycle_ratio_float ?(epsilon = 1e-9) g ~num ~den =
  if not (Cycles.has_cycle g) then None
  else begin
    let hi0 =
      Graph.fold_edges (fun acc e -> acc +. float_of_int (abs (num e))) 1. g
    in
    let lo = ref 0. and hi = ref hi0 in
    while !hi -. !lo > epsilon do
      let mid = (!lo +. !hi) /. 2. in
      if exists_cycle_above g ~num ~den mid then lo := mid else hi := mid
    done;
    Some ((!lo +. !hi) /. 2.)
  end
