module Csdfg = Dataflow.Csdfg
module G = Digraph.Graph

(* The sweep's state, in per-run arrays.  Start-up places only at the
   current step [cs], and [cs] never decreases, so on each processor the
   last placement is the only one that can reach [cs] or later.  Every
   occupancy question the sweep asks is therefore one read of [tail]:
   [p] is free at [cs] for any span iff [tail.(p) < cs], the node
   running there otherwise is [last.(p)], and the first free start at or
   after [from] is [max from (tail.(p) + 1)].  No [Schedule.t] exists
   until the sweep ends. *)
type sweep = {
  cb : int array;  (* per node; 0 while unplaced *)
  pe : int array;  (* per node *)
  ce : int array;  (* per node; 0 while unplaced, as [Priority] reads it *)
  tail : int array;  (* per processor: CE of its last placement, 0 if none *)
  last : int array;  (* per processor: its last placed node *)
}

(* Data-arrival bounds for [v] at the current placements: per processor
   [p], the last control step occupied by a predecessor's data in flight
   ([max over zero-delay preds u of CE u + M(PE u, p)]); [v] may start at
   any step strictly greater.  One pass over the predecessor list fills
   the bound for every PE, instead of re-walking the list per
   processor. *)
let arrival_bounds_all dfg comm st ~np v =
  let bounds = Array.make np 0 in
  List.iter
    (fun (e : Csdfg.attr G.edge) ->
      if Csdfg.delay e = 0 then begin
        let u = e.G.src in
        let pu = st.pe.(u) and ceu = st.ce.(u) in
        let volume = Csdfg.volume e in
        for p = 0 to np - 1 do
          let b = ceu + Comm.cost comm ~src:pu ~dst:p ~volume in
          if b > bounds.(p) then bounds.(p) <- b
        done
      end)
    (Csdfg.pred dfg v);
  bounds

(* Graph-derived setup, reused across runs on the same CSDFG: the
   benches and multi-topology sweeps reschedule one graph dozens of
   times, and validation + priority analysis + the zero-delay DAG are a
   fixed per-run cost otherwise.  One slot per domain keeps the memo safe
   under Parutil's domain parallelism. *)
type setup = {
  graph : Csdfg.t;
  priority : Priority.t;
  dag : Csdfg.attr G.t;
  in_degrees : int array;
}

let setup_slot : setup option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let setup_for dfg =
  let slot = Domain.DLS.get setup_slot in
  match !slot with
  | Some s when s.graph == dfg -> s
  | _ ->
      (* One zero-delay DAG and one topological order serve the legality
         check, ASAP/ALAP, the static levels and the sweep: a graph is
         legal when that DAG has no cycle.  Times, volumes and delays need
         no check here, since every [Csdfg.t] constructor ([make],
         [of_graph]) already rejects bad ones. *)
      let dag = Csdfg.zero_delay_graph dfg in
      let order =
        match Digraph.Topo.sort dag with
        | Some order -> order
        | None -> invalid_arg "Startup.run: illegal CSDFG"
      in
      let s =
        {
          graph = dfg;
          priority = Priority.of_dag dfg ~dag ~order;
          dag;
          in_degrees = Array.init (Csdfg.n_nodes dfg) (G.in_degree dag);
        }
      in
      slot := Some s;
      s

(* Decision provenance (Obs.Journal).  The helpers below run only when
   the journal is enabled; the scheduling loop itself pays one atomic
   load per placement attempt. *)

(* The zero-delay predecessor whose data is the last to arrive at
   processor [p] — the one that binds [arrival_bounds_all]'s entry. *)
let latest_pred dfg comm st v p =
  List.fold_left
    (fun acc (e : Csdfg.attr G.edge) ->
      if Csdfg.delay e <> 0 then acc
      else begin
        let u = e.G.src in
        let b =
          st.ce.(u)
          + Comm.cost comm ~src:st.pe.(u) ~dst:p ~volume:(Csdfg.volume e)
        in
        match acc with
        | Some (_, _, best) when best >= b -> acc
        | _ -> Some (u, e, b)
      end)
    None (Csdfg.pred dfg v)

(* The node occupying [pe] at step [cs], if any: only the processor's
   last placement can reach [cs]. *)
let blocking_holder st ~pe ~cs =
  if st.tail.(pe) >= cs then Some st.last.(pe) else None

let comm_bound_reason dfg comm st v p =
  match latest_pred dfg comm st v p with
  | Some (u, e, _) ->
      Some
        (Obs.Journal.Comm_bound
           {
             pred = u;
             hops = Comm.hops comm ~src:st.pe.(u) ~dst:p;
             volume = Csdfg.volume e;
           })
  | None -> None

(* One [Candidate] rejection per processor other than the winner, with
   the dominant reason: data still in flight (or arriving no earlier
   than on the winner), a slot already running an earlier node, or a
   slot lost this very step to a higher-priority ready node. *)
let journal_decision dfg comm st priority ~cs ~np v bounds best =
  let reject p =
    let reason =
      if bounds.(p) >= cs then comm_bound_reason dfg comm st v p
      else
        match blocking_holder st ~pe:p ~cs with
        | Some h when st.cb.(h) = cs ->
            Some (Obs.Journal.Mobility { winner = h })
        | Some h -> Some (Obs.Journal.Occupied { holder = h })
        | None ->
            if best >= 0 then comm_bound_reason dfg comm st v p else None
    in
    match reason with
    | Some reason ->
        Obs.Journal.record
          (Obs.Journal.Candidate { node = v; cs; pe = p; reason })
    | None -> ()
  in
  for p = 0 to np - 1 do
    if p <> best then reject p
  done;
  if best >= 0 then
    Obs.Journal.record
      (Obs.Journal.Placed
         {
           node = v;
           cs;
           pe = best;
           pf = Priority.pf priority ~ce:st.ce ~cs v;
           mobility = Priority.mobility priority v;
           static_level = Priority.static_level priority v;
           arrival = bounds.(best);
         })

let c_runs = Obs.Counters.counter "startup.runs"
let c_steps = Obs.Counters.counter "startup.steps"
let c_steps_skipped = Obs.Counters.counter "startup.steps_skipped"

(* Ready queue.  Elements are [(negated priority key, node)], so the
   set's ascending order is descending priority with ties broken on
   ascending id — exactly [Priority.sort_ready]'s order.
   [Priority.sort_key] splits every score into a class whose scores are
   affine in the control step and a class whose scores are constant;
   relative order inside each class never changes between steps, so one
   sorted set per class replaces the former sort-the-whole-ready-list-
   every-step (O(ready log ready) per step — quadratic over a resource-
   bound sweep, where the ready backlog grows with the graph). *)
module Rset = Set.Make (struct
  type t = int * int

  let compare (ka, va) (kb, vb) =
    match Int.compare ka kb with 0 -> Int.compare va vb | c -> c
end)

let run ?(priority_strategy = Priority.Pf) ?speeds dfg comm =
  Obs.Counters.incr c_runs;
  Obs.Trace.with_span "startup.run"
    ~args:
      [
        ("graph", Csdfg.name dfg);
        ("nodes", string_of_int (Csdfg.n_nodes dfg));
        ("processors", string_of_int (Comm.n_processors comm));
      ]
  @@ fun () ->
  (* First, so malformed speeds raise [Schedule.empty]'s errors; it also
     defines every duration the sweep reads. *)
  let empty = Schedule.empty ?speeds dfg comm in
  let { priority; dag; in_degrees; _ } = setup_for dfg in
  let n = Csdfg.n_nodes dfg in
  let np = Comm.n_processors comm in
  let st =
    {
      cb = Array.make n 0;
      pe = Array.make n 0;
      ce = Array.make n 0;
      tail = Array.make np 0;
      last = Array.make np 0;
    }
  in
  (* Nodes in placement order, for building the schedule at the end. *)
  let order = Array.make n 0 in
  let placed = ref 0 in
  let remaining_preds = Array.copy in_degrees in
  let in_list = Array.make n false in
  let ready_aff = ref Rset.empty in
  let ready_const = ref Rset.empty in
  (* Nodes becoming ready while the current step is being filled join the
     queue only on the next step, like the paper's dlist. *)
  let pending = ref [] in
  let promote v =
    if remaining_preds.(v) = 0 && not in_list.(v) then begin
      in_list.(v) <- true;
      pending := v :: !pending
    end
  in
  List.iter promote (Csdfg.nodes dfg);
  let cs = ref 1 in
  (* Per-(node, PE) memo of [arrival_bound].  A node's bound only depends
     on its zero-delay predecessors' placements, all of which are final by
     the time the node turns ready, so a computed row stays valid; rows of
     not-yet-ready successors are invalidated on each placement anyway as
     a safety net. *)
  let ab_cache : int array array = Array.make n [||] in
  let ab_row v =
    if Array.length ab_cache.(v) = 0 then
      ab_cache.(v) <- arrival_bounds_all dfg comm st ~np v;
    ab_cache.(v)
  in
  (* Any node can always run at [last CE + worst-message-cost + 1] on some
     processor, so the sweep terminates well before this bound.  The worst
     message cost is probed at the largest volume actually present — cost
     functions need not be linear in volume (fixed latencies, superlinear
     congestion models), so probing at volume 1 and scaling would
     under-estimate and kill legal graphs. *)
  let max_volume =
    List.fold_left (fun acc e -> max acc (Csdfg.volume e)) 1 (Csdfg.edges dfg)
  in
  let max_comm_cost =
    let worst = ref 0 in
    for p = 0 to np - 1 do
      for q = 0 to np - 1 do
        worst := max !worst (Comm.cost comm ~src:p ~dst:q ~volume:max_volume)
      done
    done;
    !worst
  in
  let max_speed =
    match speeds with
    | None -> 1
    | Some s -> Array.fold_left max 1 s
  in
  let fuel =
    (Csdfg.total_time dfg * max_speed * (1 + max_comm_cost)) + n + 1
  in
  let placed_any = ref false in
  (* Processors still free at the step being filled.  A placement always
     starts at the current step, so once every processor is occupied
     there nothing further can place and the scan stops early — except
     under the journal, whose per-candidate rejection records need every
     ready node probed, as before. *)
  let free_pes = ref 0 in
  let probe v =
    (* Best feasible processor: smallest (arrival bound, id) — the same
       order [List.sort compare] gave the (bound, pe) candidate pairs,
       computed without building the intermediate lists.  A processor
       free at [cs] is free for the node's whole span, since nothing is
       placed after [cs]. *)
    let bounds = ab_row v in
    let best = ref (-1) in
    let best_bound = ref max_int in
    for p = 0 to np - 1 do
      let b = bounds.(p) in
      if b < !best_bound && b < !cs && st.tail.(p) < !cs then begin
        best := p;
        best_bound := b
      end
    done;
    if Obs.Journal.enabled () then
      journal_decision dfg comm st priority ~cs:!cs ~np v bounds !best;
    if !best < 0 then false (* stays in the ready queue *)
    else begin
      let p = !best in
      let ce = !cs + Schedule.duration empty ~node:v ~pe:p - 1 in
      st.cb.(v) <- !cs;
      st.pe.(v) <- p;
      st.ce.(v) <- ce;
      st.tail.(p) <- ce;
      st.last.(p) <- v;
      order.(!placed) <- v;
      incr placed;
      decr free_pes;
      placed_any := true;
      let release (e : Csdfg.attr G.edge) =
        let w = e.G.dst in
        ab_cache.(w) <- [||];
        remaining_preds.(w) <- remaining_preds.(w) - 1;
        promote w
      in
      List.iter release (G.succ dag v);
      true
    end
  in
  (* Merge of the two class sequences in descending current score, ties
     on ascending id: an affine element [(k, v)] scores [-k - cs] at the
     step being filled, a constant one [-k].  Placed nodes leave their
     set; both sequences are snapshots, and mid-step promotions only
     touch [pending], so the traversal is not invalidated. *)
  let rec scan aff cst =
    if !free_pes <= 0 && not (Obs.Journal.enabled ()) then ()
    else
      match (aff, cst) with
      | Seq.Nil, Seq.Nil -> ()
      | Seq.Cons (((_, v) as e), tl), Seq.Nil ->
          if probe v then ready_aff := Rset.remove e !ready_aff;
          scan (tl ()) Seq.Nil
      | Seq.Nil, Seq.Cons (((_, v) as e), tl) ->
          if probe v then ready_const := Rset.remove e !ready_const;
          scan Seq.Nil (tl ())
      | Seq.Cons (((ka, va) as ea), ta), Seq.Cons (((kc, vc) as ec), tc) ->
          let sa = -ka - !cs and sc = -kc in
          if sa > sc || (sa = sc && va < vc) then begin
            if probe va then ready_aff := Rset.remove ea !ready_aff;
            scan (ta ()) cst
          end
          else begin
            if probe vc then ready_const := Rset.remove ec !ready_const;
            scan aff (tc ())
          end
  in
  while !placed < n do
    if !cs > fuel then
      invalid_arg "Startup.run: scheduling did not converge (internal error)";
    Obs.Counters.incr c_steps;
    List.iter
      (fun v ->
        match Priority.sort_key priority_strategy priority ~ce:st.ce v with
        | Priority.Affine k -> ready_aff := Rset.add (-k, v) !ready_aff
        | Priority.Const k -> ready_const := Rset.add (-k, v) !ready_const)
      !pending;
    pending := [];
    free_pes := 0;
    let next_free = ref max_int in
    for p = 0 to np - 1 do
      if st.tail.(p) < !cs then incr free_pes
      else next_free := min !next_free (st.tail.(p) + 1)
    done;
    if !free_pes = 0 && not (Obs.Journal.enabled ()) then begin
      (* Every processor is running something through this step; no
         probe can succeed before the first of them frees, so land
         there directly.  (If nothing places then either, the ordinary
         event-driven jump below takes over from that step.) *)
      if !next_free > !cs + 1 then
        Obs.Counters.incr c_steps_skipped ~by:(!next_free - !cs - 1);
      cs := !next_free
    end
    else begin
      placed_any := false;
      scan (Rset.to_seq !ready_aff ()) (Rset.to_seq !ready_const ());
      (* Event-driven sweep: when the step changed nothing (no placement
         and no newly ready nodes), the placements are frozen, so every
         ready node's feasibility at a future step [s] depends on [s]
         alone.  Jump straight to the earliest step at which any
         (node, PE) pair becomes feasible — every skipped step would
         have placed nothing. *)
      if !placed_any || !pending <> [] then incr cs
      else begin
        let next = ref max_int in
        let consider v =
          let bounds = ab_row v in
          for p = 0 to np - 1 do
            let s = max (max (bounds.(p) + 1) (!cs + 1)) (st.tail.(p) + 1) in
            if s < !next then next := s
          done
        in
        Rset.iter (fun (_, v) -> consider v) !ready_aff;
        Rset.iter (fun (_, v) -> consider v) !ready_const;
        if !next <> max_int && !next > !cs + 1 then
          Obs.Counters.incr c_steps_skipped ~by:(!next - !cs - 1);
        cs := if !next = max_int then !cs + 1 else !next
      end
    end
  done;
  (* One [assign] per placement, in placement order: its overlap check
     re-verifies the sweep's bookkeeping. *)
  let sched =
    Array.fold_left
      (fun s v -> Schedule.assign s ~node:v ~cb:st.cb.(v) ~pe:st.pe.(v))
      empty order
  in
  Schedule.set_length sched (Timing.required_length sched)

let run_on ?priority_strategy ?speeds dfg topo =
  run ?priority_strategy ?speeds dfg (Comm.of_topology topo)
