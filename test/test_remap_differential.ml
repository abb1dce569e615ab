(* Remap's candidate search against the ranking it replaced.

   The oracle below is the earlier remap kept verbatim: every processor
   becomes a (pressure, step, added communication, processor) tuple, the
   tuples are sorted with [compare] and the head wins; each candidate
   reads the schedule through [Timing]'s per-edge lookups.  Its
   [required_length] is the fold of the per-edge PSL over
   [is_assigned] / [pe] / [ce] / [cb].

   One property drives random loops (with self loops added) on random
   machines — both transports, an asymmetric cost, uniform and
   heterogeneous speeds — through a few compaction passes.  On every
   rotation it re-places the rotated set in both orders, under both
   scorings and with no row limit, the previous length or a tighter
   one, and checks each [Remap.place_node] against the oracle's choice.
   It checks [Timing.required_length] against the oracle on each
   partial table of that walk and on the complete schedule of each
   pass. *)

module Csdfg = Dataflow.Csdfg
module G = Digraph.Graph
module Schedule = Cyclo.Schedule
module Comm = Cyclo.Comm
module Remap = Cyclo.Remap
module Rotation = Cyclo.Rotation
module Timing = Cyclo.Timing

(* ------------------------------------------------------------------ *)
(* The oracle                                                           *)
(* ------------------------------------------------------------------ *)

let ceil_div a b = if a >= 0 then (a + b - 1) / b else a / b

let oracle_psl_edge sched (e : Csdfg.attr G.edge) =
  let d = Schedule.delay sched e in
  if d = 0 then None
  else if
    not (Schedule.is_assigned sched e.G.src && Schedule.is_assigned sched e.G.dst)
  then None
  else begin
    let m = Timing.edge_cost sched e in
    let need = m + Schedule.ce sched e.G.src - Schedule.cb sched e.G.dst + 1 in
    Some (max 0 (ceil_div need d))
  end

let oracle_required_length sched =
  List.fold_left
    (fun acc e ->
      match oracle_psl_edge sched e with None -> acc | Some l -> max acc l)
    (Schedule.rows_needed sched)
    (Csdfg.edges (Schedule.dfg sched))

let oracle_earliest_start sched ~node ~pe ~target_length =
  let bound acc (e : Csdfg.attr G.edge) =
    let u = e.G.src in
    if u = node || not (Schedule.is_assigned sched u) then acc
    else begin
      let m =
        Comm.cost (Schedule.comm sched) ~src:(Schedule.pe sched u) ~dst:pe
          ~volume:(Csdfg.volume e)
      in
      max acc
        (m + Schedule.ce sched u + 1 - (Schedule.delay sched e * target_length))
    end
  in
  max 1 (List.fold_left bound 1 (Csdfg.pred (Schedule.dfg sched) node))

let adjacent_comm sched v pe =
  let dfg = Schedule.dfg sched in
  let comm = Schedule.comm sched in
  let one acc (other, volume) =
    if Schedule.is_assigned sched other && other <> v then
      acc + Comm.cost comm ~src:(Schedule.pe sched other) ~dst:pe ~volume
    else acc
  in
  let ins = List.map (fun e -> (e.G.src, Csdfg.volume e)) (Csdfg.pred dfg v) in
  let outs = List.map (fun e -> (e.G.dst, Csdfg.volume e)) (Csdfg.succ dfg v) in
  List.fold_left one 0 (ins @ outs)

let placement_pressure sched v pe cs =
  let dfg = Schedule.dfg sched in
  let comm = Schedule.comm sched in
  let ce = cs + Schedule.duration sched ~node:v ~pe - 1 in
  let from_in acc (e : Csdfg.attr G.edge) =
    let u = e.G.src in
    let d = Schedule.delay sched e in
    if u = v || d = 0 || not (Schedule.is_assigned sched u) then acc
    else begin
      let m =
        Comm.cost comm ~src:(Schedule.pe sched u) ~dst:pe
          ~volume:(Csdfg.volume e)
      in
      max acc (ceil_div (m + Schedule.ce sched u - cs + 1) d)
    end
  in
  let from_out acc (e : Csdfg.attr G.edge) =
    let w = e.G.dst in
    let d = Schedule.delay sched e in
    if w = v || d = 0 || not (Schedule.is_assigned sched w) then acc
    else begin
      let m =
        Comm.cost comm ~src:pe ~dst:(Schedule.pe sched w)
          ~volume:(Csdfg.volume e)
      in
      max acc (ceil_div (m + ce - Schedule.cb sched w + 1) d)
    end
  in
  let self acc (e : Csdfg.attr G.edge) =
    if e.G.src = v && e.G.dst = v && Schedule.delay sched e > 0 then
      max acc
        (ceil_div
           (Schedule.duration sched ~node:v ~pe)
           (Schedule.delay sched e))
    else acc
  in
  let p = List.fold_left from_in ce (Csdfg.pred dfg v) in
  let p = List.fold_left from_out p (Csdfg.succ dfg v) in
  List.fold_left self p (Csdfg.succ dfg v)

let oracle_place_node ~scoring ~limit ~target sched v =
  let candidate pe =
    let span = Schedule.duration sched ~node:v ~pe in
    let an = oracle_earliest_start sched ~node:v ~pe ~target_length:target in
    let cs = Schedule.first_free_slot sched ~pe ~from:an ~span in
    match limit with
    | Some l when cs + span - 1 > l -> None
    | Some _ | None ->
        let primary =
          match scoring with
          | Remap.Pressure_first -> placement_pressure sched v pe cs
          | Remap.Earliest_step -> 0
        in
        Some (primary, cs, adjacent_comm sched v pe, pe)
  in
  let candidates =
    List.filter_map candidate (List.init (Schedule.n_processors sched) Fun.id)
  in
  match List.sort compare candidates with
  | [] -> None
  | (_, cs, _, pe) :: _ -> Some (Schedule.assign sched ~node:v ~cb:cs ~pe)

(* ------------------------------------------------------------------ *)
(* Random instances                                                     *)
(* ------------------------------------------------------------------ *)

let pick st a = a.(Random.State.int st (Array.length a))
let int_in st lo hi = lo + Random.State.int st (hi - lo + 1)

let machine st =
  pick st
    [|
      (fun () -> Topology.linear_array (int_in st 2 8));
      (fun () -> Topology.ring (int_in st 3 8));
      (fun () -> Topology.complete (int_in st 2 6));
      (fun () -> Topology.mesh ~rows:(int_in st 2 3) ~cols:(int_in st 2 4));
      (fun () -> Topology.hypercube (int_in st 1 3));
      (fun () -> Topology.star (int_in st 3 6));
    |]
    ()

(* Store-and-forward, wormhole, or a cost that is dearer in one
   direction, so a swapped source and destination would show. *)
let comm_of st topo =
  match Random.State.int st 3 with
  | 0 -> Comm.of_topology topo
  | 1 -> Comm.wormhole topo
  | _ ->
      Comm.custom ~n:(Topology.n_processors topo) ~name:"skewed"
        (fun p q m -> (Topology.hops topo p q * m) + if p > q then 1 else 0)

(* A connected random loop plus self loops — two on one node, so the
   smallest of their delays is the one that binds. *)
let graph st =
  let params =
    {
      Workloads.Random_gen.default with
      nodes = int_in st 4 14;
      feedback_edges = int_in st 1 4;
      max_time = int_in st 1 3;
    }
  in
  let g =
    Workloads.Random_gen.generate_connected ~params
      ~seed:(Random.State.bits st) ()
  in
  let label = Csdfg.label g in
  let nodes = List.map (fun v -> (label v, Csdfg.time g v)) (Csdfg.nodes g) in
  let edges =
    List.map
      (fun (e : Csdfg.attr G.edge) ->
        (label e.G.src, label e.G.dst, Csdfg.delay e, Csdfg.volume e))
      (Csdfg.edges g)
  in
  let n = Csdfg.n_nodes g in
  let looped = label (Random.State.int st n) in
  let self_loops =
    [ (looped, looped, int_in st 1 3, 1); (looped, looped, int_in st 1 3, 2) ]
    @ if Random.State.bool st then
        let v = label (Random.State.int st n) in
        [ (v, v, int_in st 1 2, 1) ]
      else []
  in
  Csdfg.make ~name:(Csdfg.name g) ~nodes ~edges:(edges @ self_loops)

let speeds st np =
  if Random.State.bool st then None
  else Some (Array.init np (fun _ -> int_in st 1 3))

(* ------------------------------------------------------------------ *)
(* The property                                                         *)
(* ------------------------------------------------------------------ *)

let fail fmt = Printf.ksprintf (fun m -> QCheck.Test.fail_report m) fmt

let check_required what sched =
  let got = Timing.required_length sched
  and want = oracle_required_length sched in
  if got <> want then fail "%s: required_length %d, oracle %d" what got want

let signature = Option.map Schedule.signature

(* Re-place [rot]'s nodes in [order], checking every placement. *)
let walk ~scoring ~limit ~target rot order =
  let rec go sched = function
    | [] -> ()
    | v :: rest -> (
        let got = Remap.place_node ~scoring ~limit ~target sched v
        and want = oracle_place_node ~scoring ~limit ~target sched v in
        if signature got <> signature want then
          fail "node %s, %s, limit %s: place_node %s, oracle %s"
            (Csdfg.label (Schedule.dfg sched) v)
            (Fmt.str "%a" Remap.pp_scoring scoring)
            (match limit with Some l -> string_of_int l | None -> "none")
            (Option.value ~default:"none" (signature got))
            (Option.value ~default:"none" (signature want));
        match got with
        | Some next ->
            check_required "partial table" next;
            go next rest
        | None -> ())
  in
  go rot.Rotation.base order

let same_as_oracle seed =
  let st = Random.State.make [| seed; 0x7e3a |] in
  let topo = machine st in
  let comm = comm_of st topo in
  let g = graph st in
  let speeds = speeds st (Topology.n_processors topo) in
  let passes = int_in st 3 8 in
  let rec pass i sched =
    if i <= passes then begin
      let sched = Schedule.normalize sched in
      let sched = Schedule.set_length sched (Timing.required_length sched) in
      check_required "complete table" sched;
      match Rotation.start sched with
      | Error _ -> ()
      | Ok rot ->
          check_required "rotated base" rot.Rotation.base;
          let prev = rot.Rotation.previous_length in
          let target = max 1 (prev - 1) in
          let order = Remap.place_order rot in
          List.iter
            (fun scoring ->
              List.iter
                (fun limit ->
                  walk ~scoring ~limit ~target rot order;
                  walk ~scoring ~limit ~target rot (List.rev order))
                [ None; Some prev; Some (int_in st 1 prev) ])
            [ Remap.Pressure_first; Remap.Earliest_step ];
          let mode =
            if Random.State.bool st then Remap.With_relaxation
            else Remap.Without_relaxation
          in
          pass (i + 1) (fst (Cyclo.Compaction.pass mode sched))
    end
  in
  pass 1 (Cyclo.Startup.run ?speeds g comm);
  true

let differential =
  QCheck.Test.make ~count:400
    ~name:"place_node and required_length match the tuple-sort oracle"
    (QCheck.int_range 0 1_000_000) same_as_oracle

let () =
  Alcotest.run "remap differential"
    [ ("oracle", [ QCheck_alcotest.to_alcotest ~long:false differential ]) ]
