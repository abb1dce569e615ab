module Csdfg = Dataflow.Csdfg
module G = Digraph.Graph

type strategy = Patched | Rebuilt

type plan = {
  failed_pes : int list;
  failed_links : (int * int) list;
  surviving : int array;
  of_original : int array;
  topology : Topology.t;
  schedule : Schedule.t;
  strategy : strategy;
  moved : (int * int * int) list;
  migration_cost : int;
}

let canon (a, b) = (min a b, max a b)

let sub_topology topo ~failed_pes ~failed_links =
  let np = Topology.n_processors topo in
  let dead = Array.make np false in
  List.iter
    (fun p ->
      if p < 0 || p >= np then
        invalid_arg "Degrade.sub_topology: failed processor out of range";
      dead.(p) <- true)
    failed_pes;
  let cut = List.map canon failed_links in
  let surviving =
    Array.of_list
      (List.filter (fun p -> not dead.(p)) (List.init np (fun p -> p)))
  in
  if Array.length surviving = 0 then
    Error "no processor survives the scenario"
  else begin
    let of_original = Array.make np (-1) in
    Array.iteri (fun i p -> of_original.(p) <- i) surviving;
    let links =
      Topology.weighted_links topo
      |> List.filter_map (fun (a, b, w) ->
             if dead.(a) || dead.(b) || List.mem (canon (a, b)) cut then None
             else Some (of_original.(a), of_original.(b), w))
    in
    match
      Topology.of_weighted_links
        ~name:(Topology.name topo ^ "-degraded")
        ~n:(Array.length surviving) links
    with
    | dtopo -> Ok (surviving, dtopo)
    | exception Invalid_argument msg -> Error msg
  end

let migration_volume sched v =
  let dfg = Schedule.dfg sched in
  max 1
    (List.fold_left
       (fun acc (e : Csdfg.attr G.edge) ->
         acc + (Schedule.delay sched e * Csdfg.volume e))
       0
       (Csdfg.pred dfg v))

let c_replans = Obs.Counters.counter "degrade.replans"
let c_patch_fallbacks = Obs.Counters.counter "degrade.patch_fallbacks"

let valid_on dsched dtopo =
  Validator.is_legal dsched
  && Validator.check_topology dsched dtopo = Ok ()

let deadline_error = "deadline exceeded"

let replan ?time_budget sched topo ~failed_pes ~failed_links =
  Obs.Counters.incr c_replans;
  (* Replanning is a short pipeline of indivisible phases (patch, the
     rebuild fallback, migration pricing); the budget is checked at the
     phase boundaries, so expiry surfaces as a typed error rather than
     a half-built plan. *)
  let deadline =
    Option.map
      (fun b -> Obs.Trace.now_ns () + int_of_float (b *. 1e9))
      time_budget
  in
  let out_of_time () =
    match deadline with
    | None -> false
    | Some d -> Obs.Trace.now_ns () > d
  in
  Obs.Trace.with_span "degrade.replan"
    ~args:
      [
        ("failed_pes", string_of_int (List.length failed_pes));
        ("failed_links", string_of_int (List.length failed_links));
      ]
  @@ fun () ->
  if not (Schedule.assigned_all sched) then
    invalid_arg "Degrade.replan: schedule has unassigned nodes";
  let np = Topology.n_processors topo in
  if np <> Schedule.n_processors sched then
    invalid_arg "Degrade.replan: topology size mismatch";
  match sub_topology topo ~failed_pes ~failed_links with
  | Error _ as e -> e
  | Ok (surviving, dtopo) ->
      let of_original = Array.make np (-1) in
      Array.iteri (fun i p -> of_original.(p) <- i) surviving;
      let is_dead p = of_original.(p) < 0 in
      let dfg = Schedule.dfg sched and retiming = Schedule.retiming sched in
      let speeds = Schedule.speeds sched in
      let dspeeds = Array.map (fun p -> speeds.(p)) surviving in
      let dcomm = Comm.of_topology dtopo in
      let nodes = Csdfg.nodes dfg in
      (* The replanned table keeps the retiming of the one it replans. *)
      let empty = Schedule.empty ~speeds:dspeeds ~retiming dfg dcomm in
      (* Patch: survivors pinned at their control steps, victims
         re-placed one at a time in static order by Remap's candidate
         search, scored by earliest step against the old length. *)
      let patch () =
        let base =
          List.fold_left
            (fun s v ->
              let p = Schedule.pe sched v in
              if is_dead p then s
              else
                Schedule.assign s ~node:v ~cb:(Schedule.cb sched v)
                  ~pe:of_original.(p))
            empty nodes
        in
        let victims =
          List.filter (fun v -> is_dead (Schedule.pe sched v)) nodes
          |> List.sort (fun a b ->
                 match compare (Schedule.cb sched a) (Schedule.cb sched b) with
                 | 0 -> compare a b
                 | c -> c)
        in
        let place s v =
          (* an unlimited search always finds a slot *)
          Option.get
            (Remap.place_node ~scoring:Remap.Earliest_step ~limit:None
               ~target:(Schedule.length sched) s v)
        in
        let s = List.fold_left place base victims in
        let s = Schedule.set_length s (Timing.required_length s) in
        if valid_on s dtopo then Some s else None
      in
      (* Start-up reads delays off a graph, so it runs on the retimed
         one, and its placements move onto [empty]. *)
      let rebuild () =
        let fresh =
          Startup.run ~speeds:dspeeds (Dataflow.Retiming.apply dfg retiming)
            dcomm
        in
        let s = ref empty in
        Schedule.iter_placements
          (fun v ~cb ~pe -> s := Schedule.assign !s ~node:v ~cb ~pe)
          fresh;
        Schedule.set_length !s (Schedule.length fresh)
      in
      if out_of_time () then Error deadline_error
      else
      let patched = patch () in
      if out_of_time () then Error deadline_error
      else
      let schedule, strategy =
        match patched with
        | Some s -> (s, Patched)
        | None ->
            (* never re-compact here: compaction retimes, and retiming
               moves tokens across the iteration boundary the recovery
               checkpoint was taken at *)
            Obs.Counters.incr c_patch_fallbacks;
            (rebuild (), Rebuilt)
      in
      if not (valid_on schedule dtopo) then
        Error "degraded schedule failed validation (internal error)"
      else if out_of_time () then Error deadline_error
      else begin
        (* Migration: every node that changed processor ships its
           loop-carried state from a donor — its old processor when
           alive, else the nearest surviving neighbour of the dead
           processor (where a checkpoint would live) — priced by the
           degraded machine's own communication function. *)
        let donor_of p =
          if not (is_dead p) then p
          else
            Array.fold_left
              (fun (bd, bq) q ->
                let d = Topology.hops topo p q in
                if d < bd || (d = bd && q < bq) then (d, q) else (bd, bq))
              (max_int, max_int) surviving
            |> snd
        in
        let moved =
          List.filter_map
            (fun v ->
              let old_pe = Schedule.pe sched v in
              let new_pe = surviving.(Schedule.pe schedule v) in
              if old_pe <> new_pe then Some (v, old_pe, new_pe) else None)
            nodes
        in
        let migration_cost =
          List.fold_left
            (fun acc (v, old_pe, new_pe) ->
              let donor = of_original.(donor_of old_pe) in
              acc
              + Comm.cost dcomm ~src:donor ~dst:of_original.(new_pe)
                  ~volume:(migration_volume sched v))
            0 moved
        in
        Ok
          {
            failed_pes = List.sort_uniq compare failed_pes;
            failed_links = List.sort_uniq compare (List.map canon failed_links);
            surviving;
            of_original;
            topology = dtopo;
            schedule;
            strategy;
            moved;
            migration_cost;
          }
      end
