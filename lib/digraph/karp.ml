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
   cannot do forever without closing a parent cycle.  A parent cycle is
   elementary (every node has one parent), so the last witness is an
   elementary critical cycle. *)
let critical_cycle g ~num ~den =
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
  let rec raise_bound cycle =
    let p, q = measure cycle in
    match positive_cycle ~p ~q with
    | None -> ((p, q), List.map (Array.get edges) cycle)
    | Some next -> raise_bound next
  in
  (* Below every ratio: a cycle's numerator is at least minus the sum of
     all numerators' magnitudes, and its denominator at least 1. *)
  let floor = -1 - Array.fold_left (fun acc x -> acc + abs x) 0 nums in
  match positive_cycle ~p:floor ~q:1 with
  | Some cycle -> Some (raise_bound cycle)
  | None ->
      if not (Topo.is_dag g) then
        invalid_arg
          "Digraph.Karp.maximum_cycle_ratio: non-positive cycle denominator";
      None

let maximum_cycle_ratio g ~num ~den = Option.map fst (critical_cycle g ~num ~den)
