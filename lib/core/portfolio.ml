module Csdfg = Dataflow.Csdfg

type search = {
  index : int;
  mode : Remap.mode;
  scoring : Remap.scoring;
  order : Remap.order;
}

type member = {
  search : search;
  result : Compaction.result;
  passes : int;
}

type t = {
  winner : member;
  members : member list;
  k : int;
  domains : int;
  lower_bound : int;
  timed_out : bool;
}

let combos =
  [|
    (Remap.With_relaxation, Remap.Pressure_first);
    (Remap.With_relaxation, Remap.Earliest_step);
    (Remap.Without_relaxation, Remap.Pressure_first);
    (Remap.Without_relaxation, Remap.Earliest_step);
  |]

(* Every (mode, scoring) pair in both re-placement orders. *)
let max_k = 2 * Array.length combos

let searches ~k =
  if k < 1 || k > max_k then
    invalid_arg
      (Printf.sprintf
         "Portfolio: k = %d is outside 1..%d, the number of distinct searches"
         k max_k);
  List.init k (fun i ->
      let mode, scoring = combos.(i mod 4) in
      let order = if i < 4 then Remap.Forward else Remap.Reverse in
      { index = i; mode; scoring; order })

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

let run ?(k = max_k) ?domains ?passes ?time_budget ?speeds ?(validate = false)
    dfg comm =
  let searches = searches ~k in
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
  let past_deadline =
    match time_budget with
    | None -> fun () -> false
    | Some b ->
        let deadline = Obs.Trace.now_ns () + int_of_float (b *. 1e9) in
        fun () -> Obs.Trace.now_ns () > deadline
  in
  (* Compaction replaces its best only with a strictly shorter schedule,
     so a search that has reached the lower bound can gain nothing more:
     that is the only early stop that cannot cost it its result.  The
     deadline is the one stop that depends on timing rather than on the
     search's own trajectory, so a search it cuts short marks the
     portfolio [timed_out]: it trades the byte-identical-winner
     guarantee for bounded latency. *)
  let drive _ s =
    Obs.Trace.with_span "portfolio.search"
      ~args:
        [
          ("search", string_of_int s.index);
          ("mode", Fmt.str "%a" Remap.pp_mode s.mode);
          ("scoring", Fmt.str "%a" Remap.pp_scoring s.scoring);
          ("order", Fmt.str "%a" Remap.pp_order s.order);
        ]
    @@ fun () ->
    let st =
      Compaction.stepper ~mode:s.mode ~scoring:s.scoring ~order:s.order
        ~budget ~validate startup
    in
    let late = ref false in
    let should_stop ~pass:_ ~best =
      late := past_deadline ();
      !late || best <= lb
    in
    ignore (Compaction.advance ~should_stop ~passes:budget st);
    (st, !late)
  in
  let driven = Parutil.Parallel.mapi ~domains drive searches in
  let winner, ranked =
    rank
      (List.map2
         (fun s (st, _) ->
           {
             search = s;
             result = Compaction.stepper_result st;
             passes = Compaction.passes_run st;
           })
         searches driven)
  in
  {
    winner;
    members = ranked;
    k;
    domains;
    lower_bound = lb;
    timed_out = List.exists snd driven;
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

let run_on ?k ?domains ?passes ?time_budget ?speeds ?validate dfg topo =
  run ?k ?domains ?passes ?time_budget ?speeds ?validate dfg
    (Comm.of_topology topo)

let best t = t.winner.result.Compaction.best

let pp_search ppf s =
  Fmt.pf ppf "%a/%a/%a" Remap.pp_mode s.mode Remap.pp_scoring s.scoring
    Remap.pp_order s.order

let pp ppf t =
  Fmt.pf ppf
    "@[<v>portfolio winner: search %d (%a) at length %d (lower bound %d)@,"
    t.winner.search.index pp_search t.winner.search
    (Schedule.length (best t))
    t.lower_bound;
  List.iter
    (fun m ->
      Fmt.pf ppf "  %2d %a -> %d in %d passes@," m.search.index pp_search
        m.search
        (Schedule.length m.result.Compaction.best)
        m.passes)
    t.members;
  Fmt.pf ppf "  %d searches over %d domains@," t.k t.domains;
  if t.timed_out then
    Fmt.pf ppf "  (time budget exhausted: best-so-far of every search)@,";
  Fmt.pf ppf "@]"
