module Csdfg = Dataflow.Csdfg
module G = Digraph.Graph

type violation =
  | Unassigned of int
  | Out_of_table of int
  | Overlap of int * int
  | Dependence of Csdfg.attr G.edge * int
  | Missing_processor of int
  | Unroutable of Csdfg.attr G.edge

let pp_violation sched ppf v =
  let dfg = Schedule.dfg sched in
  match v with
  | Unassigned n -> Fmt.pf ppf "node %s is unassigned" (Csdfg.label dfg n)
  | Out_of_table n ->
      Fmt.pf ppf "node %s runs past the table (CE=%d > L=%d)"
        (Csdfg.label dfg n) (Schedule.ce sched n) (Schedule.length sched)
  | Overlap (a, b) ->
      Fmt.pf ppf "nodes %s and %s overlap on pe%d" (Csdfg.label dfg a)
        (Csdfg.label dfg b)
        (Schedule.pe sched a + 1)
  | Dependence (e, missing) ->
      Fmt.pf ppf "edge %s -> %s (d=%d c=%d) is %d step(s) too tight"
        (Csdfg.label dfg e.G.src) (Csdfg.label dfg e.G.dst)
        (Schedule.delay sched e)
        (Csdfg.volume e) missing
  | Missing_processor n ->
      Fmt.pf ppf "node %s is placed on pe%d, which is absent or failed"
        (Csdfg.label dfg n)
        (Schedule.pe sched n + 1)
  | Unroutable e ->
      Fmt.pf ppf "edge %s -> %s has no route (pe%d to pe%d unreachable)"
        (Csdfg.label dfg e.G.src) (Csdfg.label dfg e.G.dst)
        (Schedule.pe sched e.G.src + 1)
        (Schedule.pe sched e.G.dst + 1)

(* Stable counting sort of the ids in [src] into [dst] on the digit
   [((key.(v) - lo) lsr shift) land mask] of each id [v], whose values
   lie in [0 .. buckets - 1].  The digit is computed in the loops, not
   by a key closure: on suite-sized schedules the closure calls cost
   more than the per-processor sorts they replace. *)
let counting_pass key ~lo ~shift ~mask ~buckets src dst =
  let start = Array.make (buckets + 1) 0 in
  for i = 0 to Array.length src - 1 do
    let k = (((key.(src.(i)) - lo) lsr shift) land mask) + 1 in
    start.(k) <- start.(k) + 1
  done;
  for k = 1 to buckets do
    start.(k) <- start.(k) + start.(k - 1)
  done;
  for i = 0 to Array.length src - 1 do
    let v = src.(i) in
    let k = ((key.(v) - lo) lsr shift) land mask in
    dst.(start.(k)) <- v;
    start.(k) <- start.(k) + 1
  done

let rec bit_length x = if x = 0 then 0 else 1 + bit_length (x lsr 1)

(* Node ids in (processor, start, id) order: a stable LSD radix sort of
   the ids on [cb - min cb], in digits as wide as the range's bit length
   but at most 12 bits (so at most 4,096 buckets, however far apart the
   starts), then a stable counting pass on the processor. *)
let by_pe_start ~np ~cb ~pe =
  let n = Array.length cb in
  let lo = Array.fold_left min max_int cb in
  let bits = if n = 0 then 0 else bit_length (Array.fold_left max lo cb - lo) in
  let width = min 12 bits in
  let mask = (1 lsl width) - 1 in
  let src = ref (Array.init n Fun.id) and dst = ref (Array.make n 0) in
  let pass key ~lo ~shift ~mask ~buckets =
    counting_pass key ~lo ~shift ~mask ~buckets !src !dst;
    let t = !src in
    src := !dst;
    dst := t
  in
  let shift = ref 0 in
  while !shift < bits do
    pass cb ~lo ~shift:!shift ~mask ~buckets:(mask + 1);
    shift := !shift + width
  done;
  pass pe ~lo:0 ~shift:0 ~mask:(-1) ~buckets:np;
  !src

(* One pass: each placement is read once, through the node table's walk
   ([Schedule.iter_placements]) and [Schedule.duration] only (never
   through the occupancy index this checks), into per-node arrays; the
   rules below then read arrays. *)
let check sched =
  Obs.Trace.with_span "validator" @@ fun () ->
  let dfg = Schedule.dfg sched in
  let n = Csdfg.n_nodes dfg and np = Schedule.n_processors sched in
  let cb = Array.make n 0 and pe = Array.make n 0 and ce = Array.make n 0 in
  let unassigned = ref [] and next = ref 0 in
  let gaps upto =
    for u = !next to upto - 1 do
      unassigned := Unassigned u :: !unassigned
    done
  in
  Schedule.iter_placements
    (fun v ~cb:c ~pe:p ->
      gaps v;
      next := v + 1;
      cb.(v) <- c;
      pe.(v) <- p;
      ce.(v) <- c + Schedule.duration sched ~node:v ~pe:p - 1)
    sched;
  gaps n;
  if !unassigned <> [] then Error (List.rev !unassigned)
  else begin
    let problems = ref [] in
    let note p = problems := p :: !problems in
    let len = Schedule.length sched in
    for v = 0 to n - 1 do
      if ce.(v) > len then note (Out_of_table v)
    done;
    (* Resource overlaps: in (processor, start, node) order a sweep
       touches every intersecting pair without the O(n^2) all-pairs
       scan.  [active] holds the processor's earlier intervals whose end
       may still reach the current start, and [reach] the last row any of
       them occupies: on a legal schedule each start lies past it, so the
       sweep allocates one cell per node and scans nothing.  Pairs are
       re-sorted to the (a, b) order of the all-pairs loop. *)
    let overlaps = ref [] and active = ref [] and reach = ref min_int in
    let on = ref (-1) in
    Array.iter
      (fun v ->
        if pe.(v) <> !on then begin
          on := pe.(v);
          reach := min_int
        end;
        if cb.(v) > !reach then active := [ v ]
        else begin
          active := List.filter (fun a -> ce.(a) >= cb.(v)) !active;
          List.iter
            (fun a -> overlaps := (min a v, max a v) :: !overlaps)
            !active;
          active := v :: !active
        end;
        reach := max !reach ce.(v))
      (by_pe_start ~np ~cb ~pe);
    List.iter
      (fun (a, b) -> note (Overlap (a, b)))
      (List.sort_uniq compare !overlaps);
    (* Dependences, intra- and inter-iteration in one rule. *)
    let comm = Schedule.comm sched in
    G.iter_edges
      (fun e ->
        let u = e.G.src and v = e.G.dst in
        let m =
          Comm.cost comm ~src:pe.(u) ~dst:pe.(v) ~volume:(Csdfg.volume e)
        in
        let have = cb.(v) + (Schedule.delay sched e * len) in
        let want = ce.(u) + m + 1 in
        if have < want then note (Dependence (e, want - have)))
      (Csdfg.graph dfg);
    match List.rev !problems with [] -> Ok () | l -> Error l
  end

let is_legal sched = check sched = Ok ()

(* Placement-vs-machine consistency: every node on a live, in-range
   processor, and every cross-processor edge routable over the live
   part of the machine.  [alive] restricts the topology (degraded-mode
   checks); by default every processor is live.  Reachability is BFS
   over the link graph restricted to live endpoints, from each live
   source once. *)
let check_topology ?alive sched topo =
  let np = Topology.n_processors topo in
  let live p =
    p >= 0 && p < np
    && match alive with None -> true | Some a -> p < Array.length a && a.(p)
  in
  let adj = Array.make np [] in
  List.iter
    (fun (a, b) ->
      if live a && live b then begin
        adj.(a) <- b :: adj.(a);
        adj.(b) <- a :: adj.(b)
      end)
    (Topology.links topo);
  let reach = Hashtbl.create 8 in
  let reachable_from p =
    match Hashtbl.find_opt reach p with
    | Some r -> r
    | None ->
        let seen = Array.make np false in
        seen.(p) <- true;
        let q = Queue.create () in
        Queue.add p q;
        while not (Queue.is_empty q) do
          let x = Queue.take q in
          List.iter
            (fun y ->
              if not seen.(y) then begin
                seen.(y) <- true;
                Queue.add y q
              end)
            adj.(x)
        done;
        Hashtbl.add reach p seen;
        seen
  in
  let dfg = Schedule.dfg sched in
  let problems = ref [] in
  let note p = problems := p :: !problems in
  List.iter
    (fun v ->
      if Schedule.is_assigned sched v && not (live (Schedule.pe sched v)) then
        note (Missing_processor v))
    (Csdfg.nodes dfg);
  if !problems = [] then
    List.iter
      (fun (e : Csdfg.attr G.edge) ->
        if
          Schedule.is_assigned sched e.G.src
          && Schedule.is_assigned sched e.G.dst
        then begin
          let p = Schedule.pe sched e.G.src
          and q = Schedule.pe sched e.G.dst in
          if p <> q && not (reachable_from p).(q) then note (Unroutable e)
        end)
      (Csdfg.edges dfg);
  match List.rev !problems with [] -> Ok () | l -> Error l

let assert_legal sched =
  match check sched with
  | Ok () -> ()
  | Error problems ->
      let msg =
        Fmt.str "@[<v>illegal schedule:@,%a@,%a@]"
          (Fmt.list (pp_violation sched))
          problems Schedule.pp sched
      in
      failwith msg

let simulate sched ~iterations =
  let dfg = Schedule.dfg sched in
  let len = Schedule.length sched in
  let problems = ref [] in
  let note p = if not (List.mem p !problems) then problems := p :: !problems in
  let unassigned =
    List.filter (fun v -> not (Schedule.is_assigned sched v)) (Csdfg.nodes dfg)
  in
  List.iter (fun v -> note (Unassigned v)) unassigned;
  if unassigned = [] && len > 0 then begin
    (* Global timeline: node v of iteration i starts at i*len + CB v. *)
    let start v i = (i * len) + Schedule.cb sched v in
    let finish v i =
      start v i
      + Schedule.duration sched ~node:v ~pe:(Schedule.pe sched v)
      - 1
    in
    List.iter
      (fun v -> if Schedule.ce sched v > len then note (Out_of_table v))
      (Csdfg.nodes dfg);
    (* Resource conflicts across iteration boundaries. *)
    let horizon = (iterations + 2) * len in
    let np = Schedule.n_processors sched in
    let cell = Array.make_matrix np (horizon + 1) (-1) in
    List.iter
      (fun v ->
        for i = 0 to iterations + 1 do
          for t = start v i to min (finish v i) horizon do
            if t >= 0 then begin
              let p = Schedule.pe sched v in
              if cell.(p).(t) >= 0 && cell.(p).(t) <> v then
                note (Overlap (min v cell.(p).(t), max v cell.(p).(t)))
              else cell.(p).(t) <- v
            end
          done
        done)
      (Csdfg.nodes dfg);
    (* Dependences on the global timeline. *)
    List.iter
      (fun e ->
        let m = Timing.edge_cost sched e in
        let d = Schedule.delay sched e in
        for i = d to iterations do
          let produced = finish e.G.src (i - d) in
          let consumed = start e.G.dst i in
          if consumed < produced + m + 1 then
            note (Dependence (e, produced + m + 1 - consumed))
        done)
      (Csdfg.edges dfg)
  end
  else if len = 0 && Csdfg.n_nodes dfg > 0 && unassigned = [] then
    List.iter (fun v -> note (Out_of_table v)) (Csdfg.nodes dfg);
  match List.rev !problems with [] -> Ok () | l -> Error l
