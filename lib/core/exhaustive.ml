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

exception Budget
exception Cancelled

(* Feasibility of one table length by depth-first placement.  Nodes are
   tried in zero-delay topological order so intra-iteration producers are
   placed before consumers. *)
let feasible ?speeds ~tick dfg comm ~length =
  let order =
    match Digraph.Topo.sort (Csdfg.zero_delay_graph dfg) with
    | Some o -> o
    | None -> invalid_arg "Exhaustive: illegal CSDFG"
  in
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
  let rec place sched = function
    | [] -> Some sched
    | v :: rest ->
        let try_slot pe cb =
          tick ();
          if
            Schedule.is_free sched ~pe ~cb
              ~span:(Schedule.duration sched ~node:v ~pe)
          then begin
            let sched' = Schedule.assign sched ~node:v ~cb ~pe in
            if placement_ok sched' v then place sched' rest else None
          end
          else None
        in
        let rec scan pe cb =
          if pe >= np then None
          else begin
            let span = Schedule.duration base ~node:v ~pe in
            if cb > length - span + 1 then scan (pe + 1) 1
            else
              match try_slot pe cb with
              | Some _ as found -> found
              | None -> scan pe (cb + 1)
          end
        in
        scan 0 1
  in
  place base order

(* One shard of the root layer: the root node's candidate (pe, cb)
   slots are numbered in the exact order the sequential [feasible] scan
   tries them, and shard [shard] explores only ordinals congruent to it
   mod [shards], in increasing order, stopping at its first solution.
   The minimum successful ordinal across shards is therefore the very
   placement the sequential scan would have succeeded on first, and the
   sub-search below a root placement is byte-identical to the
   sequential one — so the combined answer matches [feasible] exactly
   whenever no per-shard budget binds.  [winning] holds the smallest
   ordinal any shard has solved (max_int until then); a shard whose
   next ordinal can no longer beat it cancels itself. *)
let feasible_shard ?speeds ~tick ~shard ~shards ~(winning : int Atomic.t)
    ~(current_ord : int ref) dfg comm ~length =
  let order =
    match Digraph.Topo.sort (Csdfg.zero_delay_graph dfg) with
    | Some o -> o
    | None -> invalid_arg "Exhaustive: illegal CSDFG"
  in
  let np = Comm.n_processors comm in
  let edge_ok sched e =
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
  let rec place sched = function
    | [] -> Some sched
    | v :: rest ->
        let try_slot pe cb =
          tick ();
          if
            Schedule.is_free sched ~pe ~cb
              ~span:(Schedule.duration sched ~node:v ~pe)
          then begin
            let sched' = Schedule.assign sched ~node:v ~cb ~pe in
            if placement_ok sched' v then place sched' rest else None
          end
          else None
        in
        let rec scan pe cb =
          if pe >= np then None
          else begin
            let span = Schedule.duration base ~node:v ~pe in
            if cb > length - span + 1 then scan (pe + 1) 1
            else
              match try_slot pe cb with
              | Some _ as found -> found
              | None -> scan pe (cb + 1)
          end
        in
        scan 0 1
  in
  match order with
  | [] -> if shard = 0 then Some (0, base) else None
  | v0 :: rest ->
      let rec scan_root o pe cb =
        if pe >= np then None
        else begin
          let span = Schedule.duration base ~node:v0 ~pe in
          if cb > length - span + 1 then scan_root o (pe + 1) 1
          else if o mod shards <> shard then scan_root (o + 1) pe (cb + 1)
          else if Atomic.get winning < o then None (* can no longer win *)
          else begin
            current_ord := o;
            tick ();
            let sub =
              if
                Schedule.is_free base ~pe ~cb
                  ~span:(Schedule.duration base ~node:v0 ~pe)
              then begin
                let sched' = Schedule.assign base ~node:v0 ~cb ~pe in
                if placement_ok sched' v0 then place sched' rest else None
              end
              else None
            in
            match sub with
            | Some sched -> Some (o, sched)
            | None -> scan_root (o + 1) pe (cb + 1)
          end
        end
      in
      scan_root 0 0 1

let publish_min (winning : int Atomic.t) o =
  let rec go () =
    let cur = Atomic.get winning in
    if o < cur && not (Atomic.compare_and_set winning cur o) then go ()
  in
  go ()

let solve ?speeds ?(max_states = 2_000_000) ?max_length ?time_budget
    ?(shards = 1) ?domains dfg comm =
  ignore domains;
  (match Csdfg.validate dfg with
  | Ok () -> ()
  | Error _ -> invalid_arg "Exhaustive.solve: illegal CSDFG");
  if shards < 1 then invalid_arg "Exhaustive.solve: shards must be >= 1";
  let startup = Startup.run ?speeds dfg comm in
  let ceiling =
    match max_length with Some l -> l | None -> Schedule.length startup
  in
  let deadline =
    match time_budget with
    | Some seconds -> Some (Obs.Trace.now_ns () + int_of_float (seconds *. 1e9))
    | None -> None
  in
  let make_tick states current_ord winning =
    (* [current_ord]/[winning] make long sub-searches self-cancel once
       another shard has solved a smaller root ordinal: the abandoned
       work could never be the reported answer, so cancellation affects
       wall-clock only, never the result. *)
    fun () ->
      incr states;
      if !states > max_states then raise Budget;
      if !states land 1023 = 0 then begin
        (match winning with
        | Some w when Atomic.get w < !current_ord -> raise Cancelled
        | _ -> ());
        match deadline with
        | Some d when Obs.Trace.now_ns () > d -> raise Budget
        | _ -> ()
      end
  in
  let deepen_sequential () =
    let states = ref 0 in
    let tick = make_tick states (ref max_int) None in
    let rec deepen length =
      if length > ceiling then None
      else
        match feasible ?speeds ~tick dfg comm ~length with
        | Some sched -> Some (Schedule.set_length sched length)
        | None -> deepen (length + 1)
    in
    deepen (lower_bound dfg comm)
  in
  let deepen_sharded () =
    let rec deepen length =
      if length > ceiling then None
      else begin
        let winning = Atomic.make max_int in
        let outcomes =
          Parutil.Parallel.mapi ?domains
            (fun _ shard ->
              let states = ref 0 in
              let current_ord = ref max_int in
              let tick = make_tick states current_ord (Some winning) in
              match
                feasible_shard ?speeds ~tick ~shard ~shards ~winning
                  ~current_ord dfg comm ~length
              with
              | Some (o, sched) ->
                  publish_min winning o;
                  `Found (o, sched)
              | None -> `Exhausted
              | exception Budget -> `Budget
              | exception Cancelled -> `Cancelled)
            (List.init shards Fun.id)
        in
        let found =
          List.filter_map
            (function `Found (o, s) -> Some (o, s) | _ -> None)
            outcomes
        in
        let budgeted = List.exists (fun o -> o = `Budget) outcomes in
        match List.sort (fun (a, _) (b, _) -> compare a b) found with
        | (_, sched) :: _ when not budgeted ->
            Some (Schedule.set_length sched length)
        | _ :: _ | [] ->
            (* A shard that ran out of budget may have skipped the very
               placement the sequential scan would have taken; degrade
               to the sequential solver's Budget behaviour. *)
            if budgeted then raise Budget else deepen (length + 1)
      end
    in
    deepen (lower_bound dfg comm)
  in
  let deepen () =
    if shards = 1 then deepen_sequential () else deepen_sharded ()
  in
  match deepen () with
  | Some sched -> Optimal sched
  | None ->
      (* the startup schedule itself is feasible at [ceiling] when the
         default ceiling is used, so reaching here means an explicit
         max_length excluded every length *)
      Gave_up None
  | exception Budget ->
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
