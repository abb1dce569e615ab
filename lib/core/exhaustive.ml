module Csdfg = Dataflow.Csdfg
module G = Digraph.Graph

type outcome = Optimal of Schedule.t | Gave_up of Schedule.t option

let ceil_div a b = (a + b - 1) / b

let lower_bound dfg comm =
  let np = Comm.n_processors comm in
  let resource = ceil_div (Csdfg.total_time dfg) np in
  let longest = Csdfg.max_time dfg in
  let cyclic =
    match Dataflow.Iteration_bound.exact_ceil dfg with
    | Some b -> b
    | None -> 1
  in
  max (max resource longest) cyclic

(* A budget ran out on a shard; carries the root ordinal it was on. *)
exception Budget of int
exception Cancelled

(* One shard of the depth-first placement search at one table length.
   Nodes are placed in [order], the zero-delay topological order, so
   intra-iteration producers are placed before consumers.  The root
   node's candidate (pe, cb) slots are numbered in scan order, and shard
   [shard] explores only ordinals congruent to it mod [shards], in
   increasing order, stopping at its first solution.  The minimum
   successful ordinal across shards is therefore the placement a
   one-shard scan succeeds on first, and the sub-search below a root
   placement does not depend on [shards] — so the answer does not
   either, whenever no per-shard budget binds.  [winning] holds the
   smallest ordinal any shard has solved (max_int until then); a shard
   whose next ordinal can no longer beat it cancels itself.  On success
   [current_ord] holds the solution's root ordinal. *)
let feasible_shard ?speeds ~tick ~shard ~shards ~(winning : int Atomic.t)
    ~(current_ord : int ref) ~order dfg comm ~length =
  let np = Comm.n_processors comm in
  let edge_ok sched e =
    (* exact rule at this length, only when both endpoints are known *)
    if
      Schedule.is_assigned sched e.G.src && Schedule.is_assigned sched e.G.dst
    then begin
      let m =
        Comm.cost comm
          ~src:(Schedule.pe sched e.G.src)
          ~dst:(Schedule.pe sched e.G.dst)
          ~volume:(Csdfg.volume e)
      in
      Schedule.cb sched e.G.dst + (Csdfg.delay e * length)
      >= Schedule.ce sched e.G.src + m + 1
    end
    else true
  in
  let placement_ok sched v =
    List.for_all (edge_ok sched) (Csdfg.pred dfg v)
    && List.for_all (edge_ok sched) (Csdfg.succ dfg v)
  in
  let base = Schedule.set_length (Schedule.empty ?speeds dfg comm) length in
  let rec place ~root sched = function
    | [] -> Some sched
    | v :: rest ->
        let rec scan o pe cb =
          if pe >= np then None
          else begin
            let span = Schedule.duration base ~node:v ~pe in
            if cb > length - span + 1 then scan o (pe + 1) 1
            else if root && o mod shards <> shard then scan (o + 1) pe (cb + 1)
            else if root && Atomic.get winning < o then
              None (* can no longer win *)
            else begin
              if root then current_ord := o;
              tick ();
              let found =
                if Schedule.is_free sched ~pe ~cb ~span then begin
                  let sched' = Schedule.assign sched ~node:v ~cb ~pe in
                  if placement_ok sched' v then place ~root:false sched' rest
                  else None
                end
                else None
              in
              match found with
              | Some _ -> found
              | None -> scan (o + 1) pe (cb + 1)
            end
          end
        in
        scan 0 0 1
  in
  place ~root:true base order

let publish_min (winning : int Atomic.t) o =
  let rec go () =
    let cur = Atomic.get winning in
    if o < cur && not (Atomic.compare_and_set winning cur o) then go ()
  in
  go ()

let solve ?speeds ?(max_states = 2_000_000) ?max_length ?time_budget
    ?(shards = 1) ?domains dfg comm =
  (match Csdfg.validate dfg with
  | Ok () -> ()
  | Error _ -> invalid_arg "Exhaustive.solve: illegal CSDFG");
  if shards < 1 then invalid_arg "Exhaustive.solve: shards must be >= 1";
  let order =
    match Digraph.Topo.sort (Csdfg.zero_delay_graph dfg) with
    | Some o -> o
    | None -> invalid_arg "Exhaustive: illegal CSDFG"
  in
  let startup = Startup.run ?speeds dfg comm in
  let ceiling =
    match max_length with Some l -> l | None -> Schedule.length startup
  in
  let deadline =
    match time_budget with
    | Some seconds -> Some (Obs.Trace.now_ns () + int_of_float (seconds *. 1e9))
    | None -> None
  in
  (* One state counter per shard, kept across every deepening level. *)
  let states = Array.init shards (fun _ -> ref 0) in
  let make_tick states current_ord winning =
    (* [current_ord]/[winning] make long sub-searches self-cancel once
       another shard has solved a smaller root ordinal: the abandoned
       work could never be the reported answer, so cancellation affects
       wall-clock only, never the result. *)
    fun () ->
      incr states;
      if !states > max_states then raise (Budget !current_ord);
      if !states land 1023 = 0 then begin
        if Atomic.get winning < !current_ord then raise Cancelled;
        match deadline with
        | Some d when Obs.Trace.now_ns () > d -> raise (Budget !current_ord)
        | _ -> ()
      end
  in
  let rec deepen length =
    if length > ceiling then `Excluded
    else begin
      let winning = Atomic.make max_int in
      let outcomes =
        Parutil.Parallel.mapi ?domains
          (fun _ shard ->
            let current_ord = ref max_int in
            let tick = make_tick states.(shard) current_ord winning in
            match
              feasible_shard ?speeds ~tick ~shard ~shards ~winning
                ~current_ord ~order dfg comm ~length
            with
            | Some sched ->
                publish_min winning !current_ord;
                `Found (!current_ord, sched)
            | None -> `Exhausted
            | exception Budget o -> `Budget o
            | exception Cancelled -> `Cancelled)
          (List.init shards Fun.id)
      in
      let found =
        List.filter_map
          (function `Found (o, s) -> Some (o, s) | _ -> None)
          outcomes
      in
      let gave_up =
        List.filter_map (function `Budget o -> Some o | _ -> None) outcomes
      in
      (* A shard that ran out of budget below the smallest solved
         ordinal may have skipped the very placement a one-shard scan
         would have taken; one that ran out above it cannot change the
         answer.  Every ordinal below the smallest solved one is
         explored before any shard can be cancelled, so which budgets
         run out there does not depend on timing, and neither does
         this decision. *)
      match List.sort (fun (a, _) (b, _) -> compare a b) found with
      | (o, sched) :: _ when List.for_all (fun b -> b > o) gave_up ->
          `Solved (Schedule.set_length sched length)
      | [] when gave_up = [] -> deepen (length + 1)
      | _ -> `Gave_up
    end
  in
  match deepen (lower_bound dfg comm) with
  | `Solved sched -> Optimal sched
  | `Excluded ->
      (* the startup schedule itself is feasible at [ceiling] when the
         default ceiling is used, so reaching here means an explicit
         max_length excluded every length *)
      Gave_up None
  | `Gave_up ->
      (* best-so-far: the startup schedule is a known-legal answer, but
         only report it when it fits the caller's length ceiling *)
      Gave_up
        (if Schedule.length startup <= ceiling then Some startup else None)

let optimality_gap sched =
  let retimed =
    Dataflow.Retiming.apply (Schedule.dfg sched) (Schedule.retiming sched)
  in
  match solve ~speeds:(Schedule.speeds sched) retimed (Schedule.comm sched) with
  | Optimal opt -> Some (Schedule.length sched - Schedule.length opt)
  | Gave_up _ -> None
