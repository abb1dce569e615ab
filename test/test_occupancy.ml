(* Executable specification of the schedule placement queries.

   [Schedule] answers [is_free] / [node_at] / [first_free_slot] /
   [first_row] / [rows_needed] from an incremental per-processor
   occupancy index.  This file keeps the pre-index semantics alive as a
   naive O(V)-per-query reference built only on [entry] + [duration],
   and checks agreement on randomly built heterogeneous schedules —
   including through assign / unassign churn, which is exactly what the
   index must keep consistent. *)

module Csdfg = Dataflow.Csdfg
module Schedule = Cyclo.Schedule
module Comm = Cyclo.Comm

(* ------------------------------------------------------------------ *)
(* The naive reference: every query is a scan over all entries          *)
(* ------------------------------------------------------------------ *)

module Spec = struct
  let entries s =
    List.filter_map
      (fun v -> Option.map (fun e -> (v, e)) (Schedule.entry s v))
      (Csdfg.nodes (Schedule.dfg s))

  let ce_of s v (e : Schedule.entry) =
    e.cb + Schedule.duration s ~node:v ~pe:e.pe - 1

  let node_at s ~pe ~cs =
    List.find_opt
      (fun (v, (e : Schedule.entry)) ->
        e.pe = pe && e.cb <= cs && cs <= ce_of s v e)
      (entries s)
    |> Option.map fst

  let is_free s ~pe ~cb ~span =
    let rec free cs = cs >= cb + span || (node_at s ~pe ~cs = None && free (cs + 1)) in
    free cb

  let first_free_slot s ~pe ~from ~span =
    let rec go cs = if is_free s ~pe ~cb:cs ~span then cs else go (cs + 1) in
    go (max 1 from)

  let rows_needed s =
    List.fold_left (fun acc (v, e) -> max acc (ce_of s v e)) 0 (entries s)

  let first_row s =
    List.filter_map
      (fun (v, (e : Schedule.entry)) -> if e.cb = 1 then Some v else None)
      (entries s)
    |> List.sort compare

  (* Every node in id order, assigned or not: (cb, pe), or (-1, -1). *)
  let dense s =
    List.map
      (fun v ->
        match Schedule.entry s v with
        | Some e -> (e.cb, e.pe)
        | None -> (-1, -1))
      (Csdfg.nodes (Schedule.dfg s))

  (* FNV-1a over the length, then per node cb and pe, or -1 for an
     unassigned one, in id order. *)
  let hash s =
    let mix h x = (h lxor x) * 0x100000001b3 in
    let h = ref (mix 0x2545f4914f6cdd1d (Schedule.length s)) in
    List.iter
      (fun (cb, pe) ->
        h := if pe < 0 then mix !h (-1) else mix (mix !h cb) pe)
      (dense s);
    !h land max_int

  let compare_assignments a b =
    compare (Schedule.length a, dense a) (Schedule.length b, dense b)
end

(* ------------------------------------------------------------------ *)
(* Random heterogeneous schedules via assign / unassign churn           *)
(* ------------------------------------------------------------------ *)

let graph_of_seed seed =
  let params =
    { Workloads.Random_gen.default with nodes = 10; feedback_edges = 3 }
  in
  Workloads.Random_gen.generate_connected ~params ~seed ()

(* Deterministically drive the schedule through a mix of placements and
   removals; placements go through the indexed [first_free_slot], so a
   broken index would also build broken (overlapping) states — caught by
   [assign] raising or by the query mismatches below. *)
let schedule_of_seed seed =
  let g = graph_of_seed seed in
  let np = 4 in
  let speeds = Array.init np (fun p -> 1 + ((seed + p) mod 3)) in
  let comm = Comm.zero ~n:np ~name:"occ" in
  let n = Csdfg.n_nodes g in
  let s = ref (Schedule.empty ~speeds g comm) in
  let rng = ref (seed land 0xFFFF) in
  let next_rand m =
    rng := ((!rng * 25173) + 13849) land 0xFFFF;
    !rng mod m
  in
  for v = 0 to n - 1 do
    let pe = next_rand np in
    let from = 1 + next_rand 6 in
    let span = Schedule.duration !s ~node:v ~pe in
    let cb = Schedule.first_free_slot !s ~pe ~from ~span in
    s := Schedule.assign !s ~node:v ~cb ~pe
  done;
  (* churn: remove a third of the nodes, re-place half of those; now and
     then clear row 1 and shift the table up until row 1 is occupied
     again, so the queries also run on shifted schedules *)
  for v = 0 to n - 1 do
    if next_rand 3 = 0 then begin
      s := Schedule.unassign !s v;
      if next_rand 2 = 0 then begin
        let pe = next_rand np in
        let span = Schedule.duration !s ~node:v ~pe in
        let cb = Schedule.first_free_slot !s ~pe ~from:1 ~span in
        s := Schedule.assign !s ~node:v ~cb ~pe
      end
    end;
    if next_rand 4 = 0 then begin
      let row1 = Schedule.first_row !s in
      s := Schedule.unassign_all !s row1;
      while Schedule.n_assigned !s > 0 && Schedule.first_row !s = [] do
        s := Schedule.shift_up !s
      done;
      List.iter
        (fun u ->
          let pe = next_rand np in
          let span = Schedule.duration !s ~node:u ~pe in
          let from = 1 + next_rand 3 in
          let cb = Schedule.first_free_slot !s ~pe ~from ~span in
          s := Schedule.assign !s ~node:u ~cb ~pe)
        row1
    end
  done;
  !s

let seed_arb = QCheck.int_range 0 10_000

let prop_queries_match_spec =
  QCheck.Test.make ~count:300
    ~name:"indexed queries agree with the naive executable spec" seed_arb
    (fun seed ->
      let s = schedule_of_seed seed in
      let np = Schedule.n_processors s in
      let horizon = Spec.rows_needed s + 3 in
      for pe = 0 to np - 1 do
        for cs = 1 to horizon do
          if Schedule.node_at s ~pe ~cs <> Spec.node_at s ~pe ~cs then
            QCheck.Test.fail_reportf "node_at pe=%d cs=%d" pe cs;
          for span = 1 to 3 do
            if
              Schedule.is_free s ~pe ~cb:cs ~span
              <> Spec.is_free s ~pe ~cb:cs ~span
            then QCheck.Test.fail_reportf "is_free pe=%d cs=%d span=%d" pe cs span;
            if
              Schedule.first_free_slot s ~pe ~from:cs ~span
              <> Spec.first_free_slot s ~pe ~from:cs ~span
            then
              QCheck.Test.fail_reportf "first_free_slot pe=%d from=%d span=%d"
                pe cs span
          done
        done
      done;
      Schedule.rows_needed s = Spec.rows_needed s
      && Schedule.first_row s = Spec.first_row s)

let prop_hash_consistent =
  QCheck.Test.make ~count:200
    ~name:"equal assignments hash equally (and usually conversely)" seed_arb
    (fun seed ->
      let s1 = schedule_of_seed seed in
      let s2 = schedule_of_seed seed in
      let s3 = schedule_of_seed (seed + 1) in
      Schedule.hash s1 = Schedule.hash s2
      && (Schedule.compare_assignments s1 s3 = 0
         || Schedule.hash s1 <> Schedule.hash s3))

(* The placement walk yields exactly the assigned nodes, ascending, with
   their table rows; the digests read through it keep their dense-order
   values, unassigned gaps included. *)
let prop_walk_matches_spec =
  QCheck.Test.make ~count:300
    ~name:"placement walk and dense-order digests agree with the spec"
    seed_arb (fun seed ->
      let s = schedule_of_seed seed and other = schedule_of_seed (seed + 1) in
      let walked = ref [] in
      Schedule.iter_placements
        (fun v ~cb ~pe -> walked := (v, cb, pe) :: !walked)
        s;
      let assigned =
        List.filter_map
          (fun v ->
            if Schedule.is_assigned s v then
              Some (v, Schedule.cb s v, Schedule.pe s v)
            else None)
          (Csdfg.nodes (Schedule.dfg s))
      in
      if List.rev !walked <> assigned then
        QCheck.Test.fail_reportf "walk differs from the assigned nodes";
      if Schedule.hash s <> Spec.hash s then
        QCheck.Test.fail_reportf "hash %d, dense-order FNV-1a %d"
          (Schedule.hash s) (Spec.hash s);
      List.for_all
        (fun (a, b) ->
          Schedule.compare_assignments a b = Spec.compare_assignments a b)
        [ (s, other); (other, s); (s, s) ])

let prop_shift_up_matches_spec =
  QCheck.Test.make ~count:200
    ~name:"shift_up keeps index and entries in sync" seed_arb
    (fun seed ->
      let s = schedule_of_seed seed in
      (* make row 1 free so shift_up is legal: bump everything by one,
         latest starters first so no move lands on a not-yet-moved
         neighbour *)
      let bumped =
        List.fold_left
          (fun acc (v, (e : Schedule.entry)) ->
            Schedule.assign
              (Schedule.unassign acc v)
              ~node:v ~cb:(e.cb + 1) ~pe:e.pe)
          s
          (List.sort
             (fun (_, (a : Schedule.entry)) (_, (b : Schedule.entry)) ->
               compare b.cb a.cb)
             (Spec.entries s))
      in
      let shifted = Schedule.shift_up bumped in
      Schedule.rows_needed shifted = Spec.rows_needed shifted
      && Schedule.first_row shifted = Spec.first_row shifted
      && Spec.entries shifted = Spec.entries s)

let () =
  Alcotest.run "occupancy"
    [
      ( "spec-agreement",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_queries_match_spec;
            prop_hash_consistent;
            prop_walk_matches_spec;
            prop_shift_up_matches_spec;
          ] );
    ]
