module Csdfg = Dataflow.Csdfg

type search = {
  index : int;
  mode : Remap.mode;
  scoring : Remap.scoring;
  order : Remap.order;
  l_target : int;
}

type member = {
  search : search;
  result : Compaction.result;
  passes : int;
  pruned : bool;
}

type t = {
  winner : member;
  members : member list;
  k : int;
  domains : int;
  lower_bound : int;
  rounds : int;
  timed_out : bool;
}

let default_k = 8

(* Passes per round between barriers, and the staleness (in passes) at
   which a search retires: [patience_lead] at or near the shared bound,
   [patience_lose] further behind, [shadow_patience] for a twin of a
   lower-indexed search.  Sized so the bench suite's winners are never
   cut off (DESIGN.md). *)
let round_passes = 8
let patience_lead = 24
let patience_lose = 12
let shadow_patience = 12

let combos =
  [|
    (Remap.With_relaxation, Remap.Pressure_first);
    (Remap.With_relaxation, Remap.Earliest_step);
    (Remap.Without_relaxation, Remap.Pressure_first);
    (Remap.Without_relaxation, Remap.Earliest_step);
  |]

let searches ~k ~lower_bound =
  List.init k (fun i ->
      let mode, scoring = combos.(i mod 4) in
      let order =
        if i / 4 mod 2 = 0 then Remap.Forward else Remap.Reverse
      in
      { index = i; mode; scoring; order; l_target = lower_bound + (i / 8) })

let c_pruned = Obs.Counters.counter "portfolio.pruned_passes"
let g_bound = Obs.Counters.gauge "portfolio.shared_bound"

(* Best length first, then lexicographic signature, then search index,
   so the winner never depends on domain count or completion order.
   Returns the validated winner and the ranked members. *)
let rank members =
  let keyed =
    List.map
      (fun m ->
        let best = m.result.Compaction.best in
        ((Schedule.length best, Schedule.signature best, m.search.index), m))
      members
  in
  match List.map snd (List.sort (fun (a, _) (b, _) -> compare a b) keyed) with
  | [] -> assert false
  | winner :: _ as ranked ->
      Validator.assert_legal winner.result.Compaction.best;
      (winner, ranked)

(* One search's bookkeeping.  [prev_best] and [last_improve] are
   updated inside the member's own should_stop callback (worker side)
   and at barriers (coordinator side); [st] is advanced by exactly one
   worker per round, and the fork-join in Parallel.mapi orders that
   work before the coordinator reads any of it back.  All of it is a
   pure function of the member's own trajectory, never of timing. *)
type live = {
  s : search;
  st : Compaction.stepper;
  mutable prev_best : int;
  mutable last_improve : int;  (* pass at which best last improved *)
  mutable best_sig : string option;  (* memoised signature of prev_best *)
  mutable alive : bool;
  mutable stopped : bool;  (* retired by should_stop or a barrier rule *)
}

let run ?(k = default_k) ?domains ?(prune = true) ?passes ?time_budget
    ?speeds ?(validate = false) dfg comm =
  if k < 1 then invalid_arg "Portfolio.run: k must be >= 1";
  Obs.Trace.with_span "portfolio.run"
    ~args:[ ("graph", Csdfg.name dfg); ("k", string_of_int k) ]
  @@ fun () ->
  let domains =
    match domains with
    | Some d -> max 1 d
    | None -> Parutil.Parallel.recommended_domains ()
  in
  let lb = Exhaustive.lower_bound dfg comm in
  let startup = Startup.run ?speeds dfg comm in
  if validate then Validator.assert_legal startup;
  let budget =
    match passes with
    | Some p -> max 0 p
    | None -> Compaction.default_passes (Csdfg.n_nodes dfg)
  in
  (* The shared best-so-far length.  Written by the coordinator at
     barriers only, so every read a worker performs inside a round sees
     the same frozen value — prune decisions cannot depend on domain
     count or completion order. *)
  let bound = Atomic.make (Schedule.length startup) in
  Obs.Counters.set g_bound (Atomic.get bound);
  (* A wall-clock budget retires every search at its next pass boundary
     once exceeded.  Unlike the patience rules this depends on timing,
     so a timed-out portfolio trades the byte-identical-winner guarantee
     for bounded latency — the flag records that the trade happened. *)
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
  let timed_out = Atomic.make false in
  let members =
    List.map
      (fun s ->
        {
          s;
          st =
            Compaction.stepper ~mode:s.mode ~scoring:s.scoring ~order:s.order
              ~budget ~validate startup;
          prev_best = Schedule.length startup;
          last_improve = 0;
          best_sig = None;
          alive = true;
          stopped = false;
        })
      (searches ~k ~lower_bound:lb)
  in
  let retire m =
    m.alive <- false;
    m.stopped <- true;
    Obs.Counters.incr c_pruned ~by:(budget - Compaction.passes_run m.st)
  in
  let slice round m =
    Obs.Trace.with_span "portfolio.search"
      ~args:
        [
          ("search", string_of_int m.s.index);
          ("round", string_of_int round);
          ("mode", Fmt.str "%a" Remap.pp_mode m.s.mode);
          ("scoring", Fmt.str "%a" Remap.pp_scoring m.s.scoring);
          ("order", Fmt.str "%a" Remap.pp_order m.s.order);
        ]
    @@ fun () ->
    let should_stop ~pass ~best =
      (* Exact staleness: an improvement is observed at the check
         before the following pass, so it happened on [pass - 1]. *)
      if best < m.prev_best then begin
        m.prev_best <- best;
        m.last_improve <- pass - 1;
        m.best_sig <- None
      end;
      (out_of_time () && (Atomic.set timed_out true; true))
      || best <= m.s.l_target
      || prune
         &&
         let stale = pass - 1 - m.last_improve in
         let b = Atomic.get bound in
         let patience =
           if best <= b then patience_lead
           else if
             (* A trailing search still within the bound's own slack to
                the provable optimum may yet dive below the bound (the
                bench suite has such late divers); one further out than
                the bound could ever move is written off quickly. *)
             best - b <= b - lb
           then patience_lead
           else patience_lose
         in
         stale >= patience
    in
    Compaction.advance ~should_stop ~passes:round_passes m.st
  in
  let signature_of m =
    match m.best_sig with
    | Some s -> s
    | None ->
        let s = Schedule.signature (Compaction.best_schedule m.st) in
        m.best_sig <- Some s;
        s
  in
  let rounds = ref 0 in
  let rec loop () =
    let alive = List.filter (fun m -> m.alive) members in
    if alive <> [] then begin
      incr rounds;
      let r = !rounds in
      let outcomes = Parutil.Parallel.mapi ~domains (fun _ m -> slice r m) alive in
      (* Barrier: fold the round's results back in, retire shadows, and
         publish the new shared bound for the next round. *)
      List.iter2
        (fun m outcome ->
          let b = Compaction.best_length m.st in
          if b < m.prev_best then begin
            (* Improved on the final pass of the slice, after the last
               should_stop check; passes_run over-approximates the pass
               by at most the slice length, deterministically. *)
            m.prev_best <- b;
            m.last_improve <- Compaction.passes_run m.st;
            m.best_sig <- None
          end;
          match outcome with
          | `Paused -> ()
          | `Finished -> m.alive <- false
          | `Stopped -> retire m)
        alive outcomes;
      if prune then begin
        (* Shadow retirement: a search whose best is the same schedule
           (byte-identical signature) as a lower-indexed live search's
           best, and which has been stale for [shadow_patience] passes,
           is redundant — its published best already participates in
           the final ranking through its twin, and the twin carries the
           improvement hunt.  Forward/reverse pairs on symmetric
           workloads collapse this way. *)
        let live = List.filter (fun m -> m.alive) members in
        List.iter
          (fun m ->
            if
              m.alive
              && Compaction.passes_run m.st - m.last_improve >= shadow_patience
              && List.exists
                   (fun m' ->
                     m'.alive && m'.s.index < m.s.index
                     && m'.prev_best = m.prev_best
                     && String.equal (signature_of m') (signature_of m))
                   live
            then retire m)
          live
      end;
      let nb =
        List.fold_left
          (fun acc m -> min acc (Compaction.best_length m.st))
          (Atomic.get bound) members
      in
      if nb < Atomic.get bound then Atomic.set bound nb;
      Obs.Counters.set g_bound (Atomic.get bound);
      loop ()
    end
  in
  loop ();
  let winner, ranked =
    rank
      (List.map
         (fun m ->
           {
             search = m.s;
             result = Compaction.stepper_result m.st;
             passes = Compaction.passes_run m.st;
             pruned = m.stopped;
           })
         members)
  in
  {
    winner;
    members = ranked;
    k;
    domains;
    lower_bound = lb;
    rounds = !rounds;
    timed_out = Atomic.get timed_out;
  }

let polish t =
  if t.timed_out then t
  else
    Obs.Trace.with_span "portfolio.polish" @@ fun () ->
    let polished =
      Parutil.Parallel.map ~domains:t.domains
        (fun m ->
          { m with result = { m.result with best = Refine.polish m.result } })
        t.members
    in
    let winner, members = rank polished in
    { t with winner; members }

let run_on ?k ?domains ?prune ?passes ?time_budget ?speeds ?validate dfg topo =
  run ?k ?domains ?prune ?passes ?time_budget ?speeds ?validate dfg
    (Comm.of_topology topo)

let best t = t.winner.result.Compaction.best

let pp_search ppf s =
  Fmt.pf ppf "%a/%a/%a target %d" Remap.pp_mode s.mode Remap.pp_scoring
    s.scoring Remap.pp_order s.order s.l_target

let pp ppf t =
  Fmt.pf ppf
    "@[<v>portfolio winner: search %d (%a) at length %d (lower bound %d)@,"
    t.winner.search.index pp_search t.winner.search
    (Schedule.length (best t))
    t.lower_bound;
  List.iter
    (fun m ->
      Fmt.pf ppf "  %2d %a -> %d in %d passes%s@," m.search.index pp_search
        m.search
        (Schedule.length m.result.Compaction.best)
        m.passes
        (if m.pruned then " (pruned)" else ""))
    t.members;
  Fmt.pf ppf "  %d searches over %d domains, %d rounds@," t.k t.domains
    t.rounds;
  if t.timed_out then
    Fmt.pf ppf "  (time budget exhausted: best-so-far of every search)@,";
  Fmt.pf ppf "@]"
