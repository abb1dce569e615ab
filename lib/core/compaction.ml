module Csdfg = Dataflow.Csdfg

type outcome = Compacted | Lateral | Expanded | Fell_back | Stuck

let pp_outcome ppf = function
  | Compacted -> Fmt.string ppf "compacted"
  | Lateral -> Fmt.string ppf "lateral"
  | Expanded -> Fmt.string ppf "expanded"
  | Fell_back -> Fmt.string ppf "fell-back"
  | Stuck -> Fmt.string ppf "stuck"

type trace_entry = {
  pass : int;
  rotated : string list;
  length : int;
  outcome : outcome;
}

type result = {
  startup : Schedule.t;
  best : Schedule.t;
  final : Schedule.t;
  trace : trace_entry list;
  converged : bool;
  timed_out : bool;
}

let default_passes n = max 16 (4 * n)

let classify ~previous ~next outcome_hint =
  match outcome_hint with
  | Some o -> o
  | None ->
      if next < previous then Compacted
      else if next = previous then Lateral
      else Expanded

let c_passes = Obs.Counters.counter "compaction.passes"
let g_best_length = Obs.Counters.gauge "compaction.best_length"
let c_compacted = Obs.Counters.counter "compaction.outcome.compacted"
let c_lateral = Obs.Counters.counter "compaction.outcome.lateral"
let c_expanded = Obs.Counters.counter "compaction.outcome.expanded"
let c_fell_back = Obs.Counters.counter "compaction.outcome.fell_back"
let c_stuck = Obs.Counters.counter "compaction.outcome.stuck"

let c_outcome = function
  | Compacted -> c_compacted
  | Lateral -> c_lateral
  | Expanded -> c_expanded
  | Fell_back -> c_fell_back
  | Stuck -> c_stuck

(* One pass, also returning the set it rotated: the first row of the
   pass's own normalized schedule. *)
let rotate_pass ?scoring ?order mode sched =
  Obs.Trace.with_span "compaction.pass" @@ fun () ->
  let sched = Schedule.normalize sched in
  let sched = Schedule.set_length sched (Timing.required_length sched) in
  let rotated, (next, outcome) =
    match Rotation.start sched with
    | Error _ -> (Schedule.first_row sched, (sched, Stuck))
    | Ok rot ->
        ( rot.rotated,
          match Remap.run ?scoring ?order mode rot with
          | Remap.Remapped next ->
              ( next,
                classify ~previous:(Schedule.length sched)
                  ~next:(Schedule.length next) None )
          | Remap.Fallback next -> (next, Fell_back)
          | Remap.Stuck -> (sched, Stuck) )
  in
  Obs.Counters.incr c_passes;
  Obs.Counters.incr (c_outcome outcome);
  (rotated, next, outcome)

let pass ?scoring ?order mode sched =
  let _, next, outcome = rotate_pass ?scoring ?order mode sched in
  (next, outcome)

(* A state repeats when both the placement and the (retimed) delay
   distribution repeat.  Hashed structurally (no string building): the
   drive loop runs this once per pass, and string signatures of large
   graphs dominated the pass bookkeeping. *)
let state_hash sched =
  List.fold_left
    (fun h e -> (h lxor Schedule.delay sched e) * 0x100000001b3)
    (Schedule.hash sched)
    (Csdfg.edges (Schedule.dfg sched))
  land max_int

(* Resumable search state.  [drive] below is a thin wrapper that runs a
   stepper to completion in one call, as Portfolio does per search; a
   caller may also advance it a slice of passes at a time.  Every
   slicing executes the identical pass sequence, so for any given knobs
   a stepper's trajectory is byte-identical however it is sliced. *)
type stepper = {
  sp_mode : Remap.mode;
  sp_scoring : Remap.scoring option;
  sp_order : Remap.order option;
  sp_budget : int;
  sp_validate : bool;
  sp_startup : Schedule.t;
  sp_seen : (int, unit) Hashtbl.t;
  mutable sp_sched : Schedule.t;
  mutable sp_best : Schedule.t;
  mutable sp_trace : trace_entry list;  (* reversed *)
  mutable sp_next : int;  (* 1-based index of the next pass to run *)
  mutable sp_converged : bool;
  mutable sp_done : bool;
}

let stepper ?(mode = Remap.With_relaxation) ?scoring ?order ~budget
    ?(validate = true) startup =
  let seen : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.add seen (state_hash startup) ();
  {
    sp_mode = mode;
    sp_scoring = scoring;
    sp_order = order;
    sp_budget = budget;
    sp_validate = validate;
    sp_startup = startup;
    sp_seen = seen;
    sp_sched = startup;
    sp_best = startup;
    sp_trace = [];
    sp_next = 1;
    sp_converged = false;
    sp_done = false;
  }

let passes_run st = st.sp_next - 1

let advance ?should_stop ~passes st =
  let stop_at = st.sp_next + passes - 1 in
  let rec loop () =
    if st.sp_done then `Finished
    else if st.sp_next > st.sp_budget then begin
      st.sp_done <- true;
      `Finished
    end
    else if
      match should_stop with
      | Some f -> f ~pass:st.sp_next ~best:(Schedule.length st.sp_best)
      | None -> false
    then begin
      st.sp_done <- true;
      `Stopped
    end
    else if st.sp_next > stop_at then `Paused
    else begin
      let i = st.sp_next in
      let sched = st.sp_sched in
      let rotated, next, outcome =
        rotate_pass ?scoring:st.sp_scoring ?order:st.sp_order st.sp_mode sched
      in
      let rotated = List.map (Csdfg.label (Schedule.dfg sched)) rotated in
      if st.sp_validate then Validator.assert_legal next;
      let entry = { pass = i; rotated; length = Schedule.length next; outcome } in
      if Obs.Journal.enabled () then
        Obs.Journal.record
          (Obs.Journal.Pass
             {
               pass = i;
               length = Schedule.length next;
               outcome = Fmt.str "%a" pp_outcome outcome;
               binding = Analysis.binding_constraint next;
             });
      if Schedule.length next < Schedule.length st.sp_best then
        st.sp_best <- next;
      st.sp_sched <- next;
      st.sp_trace <- entry :: st.sp_trace;
      st.sp_next <- i + 1;
      let signature = state_hash next in
      if outcome = Stuck || Hashtbl.mem st.sp_seen signature then begin
        st.sp_converged <- true;
        st.sp_done <- true;
        `Finished
      end
      else begin
        Hashtbl.add st.sp_seen signature ();
        loop ()
      end
    end
  in
  loop ()

let stepper_result st =
  Obs.Counters.set g_best_length (Schedule.length st.sp_best);
  {
    startup = st.sp_startup;
    best = st.sp_best;
    final = st.sp_sched;
    trace = List.rev st.sp_trace;
    converged = st.sp_converged;
    timed_out = false;
  }

(* A wall-clock budget is enforced through the [should_stop] hook
   Portfolio also uses: checked before every pass, so a pass that is
   already running completes — cancellation lands at the next pass
   boundary and the best-so-far schedule always stands. *)
let deadline_stop time_budget =
  match time_budget with
  | None -> None
  | Some budget ->
      let deadline = Obs.Trace.now_ns () + int_of_float (budget *. 1e9) in
      Some (fun ~pass:_ ~best:_ -> Obs.Trace.now_ns () > deadline)

let drive ~mode ?scoring ?order ~budget ?time_budget ~validate startup =
  let st = stepper ~mode ?scoring ?order ~budget ~validate startup in
  let outcome =
    match deadline_stop time_budget with
    | None -> advance ~passes:budget st
    | Some should_stop -> advance ~should_stop ~passes:budget st
  in
  { (stepper_result st) with timed_out = outcome = `Stopped }

let run ?(mode = Remap.With_relaxation) ?scoring ?order ?speeds ?passes
    ?time_budget ?(validate = true) dfg comm =
  Obs.Trace.with_span "compaction.run"
    ~args:
      [
        ("graph", Csdfg.name dfg);
        ("mode", Fmt.str "%a" Remap.pp_mode mode);
      ]
  @@ fun () ->
  let startup = Startup.run ?speeds dfg comm in
  if validate then Validator.assert_legal startup;
  let budget =
    match passes with
    | Some p -> max 0 p
    | None -> default_passes (Csdfg.n_nodes dfg)
  in
  drive ~mode ?scoring ?order ~budget ?time_budget ~validate startup

let resume ?(mode = Remap.With_relaxation) ?scoring ?order ?passes
    ?time_budget ?(validate = true) sched =
  Obs.Trace.with_span "compaction.resume" @@ fun () ->
  if validate then Validator.assert_legal sched;
  let budget =
    match passes with
    | Some p -> max 0 p
    | None -> default_passes (Csdfg.n_nodes (Schedule.dfg sched))
  in
  drive ~mode ?scoring ?order ~budget ?time_budget ~validate sched

let run_on ?mode ?scoring ?order ?speeds ?passes ?time_budget ?validate dfg
    topo =
  run ?mode ?scoring ?order ?speeds ?passes ?time_budget ?validate dfg
    (Comm.of_topology topo)

let pp_trace ppf trace =
  Fmt.pf ppf "@[<v>";
  List.iter
    (fun e ->
      Fmt.pf ppf "pass %-3d rotate {%s} -> length %-3d %a@," e.pass
        (String.concat " " e.rotated)
        e.length pp_outcome e.outcome)
    trace;
  Fmt.pf ppf "@]"
