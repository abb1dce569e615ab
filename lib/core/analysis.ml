module Csdfg = Dataflow.Csdfg
module G = Digraph.Graph

type binding = Obs.Journal.binding =
  | Rows of { last : int }
  | Delayed_edge of { src : int; dst : int; delay : int; psl : int }

let binding_constraint sched =
  let dfg = Schedule.dfg sched in
  let worst =
    List.fold_left
      (fun acc e ->
        match Timing.psl_edge sched e with
        | None -> acc
        | Some psl -> (
            match acc with
            | Some (_, best) when best >= psl -> acc
            | _ -> Some (e, psl)))
      None (Csdfg.edges dfg)
  in
  let rows = Schedule.rows_needed sched in
  match worst with
  | Some ((e : Csdfg.attr G.edge), psl) when psl >= rows ->
      Delayed_edge
        { src = e.G.src; dst = e.G.dst; delay = Schedule.delay sched e; psl }
  | _ -> Rows { last = rows }

type pe_util = { pe : int; busy : int; util : float; timeline : string }

let pe_utilization sched =
  let np = Schedule.n_processors sched in
  let len = Schedule.length sched in
  List.init np (fun pe ->
      let busy = ref 0 in
      let timeline =
        String.init len (fun i ->
            match Schedule.node_at sched ~pe ~cs:(i + 1) with
            | Some _ ->
                incr busy;
                '#'
            | None -> '.')
      in
      {
        pe;
        busy = !busy;
        util = (if len = 0 then 0. else float_of_int !busy /. float_of_int len);
        timeline;
      })

let traffic_matrix sched =
  let np = Schedule.n_processors sched in
  let m = Array.make_matrix np np 0 in
  List.iter
    (fun (e : Csdfg.attr G.edge) ->
      if Schedule.is_assigned sched e.G.src && Schedule.is_assigned sched e.G.dst
      then begin
        let pu = Schedule.pe sched e.G.src in
        let pv = Schedule.pe sched e.G.dst in
        if pu <> pv then m.(pu).(pv) <- m.(pu).(pv) + Csdfg.volume e
      end)
    (Csdfg.edges (Schedule.dfg sched));
  m

let link_traffic sched topo =
  if Topology.n_processors topo <> Schedule.n_processors sched then
    invalid_arg "Analysis.link_traffic: topology/schedule processor mismatch";
  let tally : (int * int, int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (e : Csdfg.attr G.edge) ->
      if Schedule.is_assigned sched e.G.src && Schedule.is_assigned sched e.G.dst
      then begin
        let pu = Schedule.pe sched e.G.src in
        let pv = Schedule.pe sched e.G.dst in
        if pu <> pv then begin
          let volume = Csdfg.volume e in
          let route = Topology.route topo ~src:pu ~dst:pv in
          let rec walk = function
            | a :: (b :: _ as rest) ->
                let link = (min a b, max a b) in
                let prev = Option.value ~default:0 (Hashtbl.find_opt tally link) in
                Hashtbl.replace tally link (prev + volume);
                walk rest
            | _ -> ()
          in
          walk route
        end
      end)
    (Csdfg.edges (Schedule.dfg sched));
  Hashtbl.fold (fun link v acc -> (link, v) :: acc) tally []
  |> List.sort compare

let pp_traffic ppf m =
  let np = Array.length m in
  let widest =
    Array.fold_left
      (fun acc row ->
        Array.fold_left
          (fun acc v -> max acc (String.length (string_of_int v)))
          acc row)
      2 m
  in
  Fmt.pf ppf "@[<v>";
  Fmt.pf ppf "%6s" "";
  for q = 0 to np - 1 do
    Fmt.pf ppf " %*s" widest (Printf.sprintf "p%d" (q + 1))
  done;
  Fmt.pf ppf "@,";
  for p = 0 to np - 1 do
    Fmt.pf ppf "%6s" (Printf.sprintf "pe%d" (p + 1));
    for q = 0 to np - 1 do
      if m.(p).(q) = 0 then Fmt.pf ppf " %*s" widest "."
      else Fmt.pf ppf " %*d" widest m.(p).(q)
    done;
    if p < np - 1 then Fmt.pf ppf "@,"
  done;
  Fmt.pf ppf "@]"

(* Same standalone-SVG shape as Export.to_svg: a self-contained document
   with inline styling, so the file drops straight into a browser. *)
let traffic_svg ?(cell = 28) sched =
  let m = traffic_matrix sched in
  let np = Array.length m in
  let peak = Array.fold_left (Array.fold_left max) 0 m in
  let margin = 38 in
  let side = margin + (np * cell) + 8 in
  let b = Buffer.create 2048 in
  Buffer.add_string b
    (Printf.sprintf
       "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%d\" height=\"%d\" \
        font-family=\"monospace\" font-size=\"10\">\n"
       side (side + 14));
  Buffer.add_string b
    (Printf.sprintf
       "<text x=\"%d\" y=\"12\">traffic (volume/iteration): %s on %s</text>\n"
       4
       (Csdfg.name (Schedule.dfg sched))
       (Comm.name (Schedule.comm sched)));
  for q = 0 to np - 1 do
    Buffer.add_string b
      (Printf.sprintf
         "<text x=\"%d\" y=\"%d\" text-anchor=\"middle\">p%d</text>\n"
         (margin + (q * cell) + (cell / 2))
         (margin - 6) (q + 1))
  done;
  for p = 0 to np - 1 do
    Buffer.add_string b
      (Printf.sprintf
         "<text x=\"%d\" y=\"%d\" text-anchor=\"end\">p%d</text>\n"
         (margin - 6)
         (margin + (p * cell) + (cell / 2) + 4)
         (p + 1));
    for q = 0 to np - 1 do
      let v = m.(p).(q) in
      let fill =
        if v = 0 then "#f4f4f4"
        else begin
          (* white-to-red ramp by share of the peak volume *)
          let t = float_of_int v /. float_of_int (max 1 peak) in
          let ch = int_of_float (235. -. (175. *. t)) in
          Printf.sprintf "rgb(255,%d,%d)" ch ch
        end
      in
      Buffer.add_string b
        (Printf.sprintf
           "<rect x=\"%d\" y=\"%d\" width=\"%d\" height=\"%d\" fill=\"%s\" \
            stroke=\"#999\"/>\n"
           (margin + (q * cell))
           (margin + (p * cell))
           cell cell fill);
      if v > 0 then
        Buffer.add_string b
          (Printf.sprintf
             "<text x=\"%d\" y=\"%d\" text-anchor=\"middle\">%d</text>\n"
             (margin + (q * cell) + (cell / 2))
             (margin + (p * cell) + (cell / 2) + 4)
             v)
    done
  done;
  Buffer.add_string b "</svg>\n";
  Buffer.contents b

type blocked = {
  node : int;
  rejections : int;
  comm_bound : int;
  occupied : int;
  tiebreak : int;
}

let rec take k = function
  | [] -> []
  | _ when k <= 0 -> []
  | x :: rest -> x :: take (k - 1) rest

let blocking_nodes_of_journal journal ~k ~n =
  let cb = Array.make n 0 and occ = Array.make n 0 and tie = Array.make n 0 in
  List.iter
    (fun (ev : Obs.Journal.event) ->
      match ev with
      | Candidate { node; reason; _ } when node >= 0 && node < n -> (
          match reason with
          | Obs.Journal.Comm_bound _ -> cb.(node) <- cb.(node) + 1
          | Obs.Journal.Occupied _ -> occ.(node) <- occ.(node) + 1
          | Obs.Journal.Mobility _ -> tie.(node) <- tie.(node) + 1)
      | _ -> ())
    journal;
  List.init n (fun v ->
      {
        node = v;
        rejections = cb.(v) + occ.(v) + tie.(v);
        comm_bound = cb.(v);
        occupied = occ.(v);
        tiebreak = tie.(v);
      })
  |> List.filter (fun b -> b.rejections > 0)
  |> List.sort (fun a b ->
         match compare b.rejections a.rejections with
         | 0 -> compare a.node b.node
         | c -> c)
  |> take k

type measured = {
  iterations : int;
  policy : string;
  makespan : int;
  period : float;
  slowdown : float;
  messages : int;
  hops : int;
  backlog : int;
  per_pe_util : float array;
}

type report = {
  sched : Schedule.t;
  length : int;
  bound : int option;
  gap : int option;
  critical_cycle : int list option;
  binding : binding;
  utilization : float;
  per_pe : pe_util list;
  comm_cost : int;
  cross_edges : int;
  traffic : int array array;
  links : ((int * int) * int) list option;
  blocking_edges : (Csdfg.attr G.edge * int) list;
  blocking_nodes : blocked list;
  measured : measured option;
}

let report ?topo ?(journal = []) ?measured ?(k = 5) sched =
  let dfg = Schedule.dfg sched in
  let length = Schedule.length sched in
  (* The cycle search's witness depends on how the delays sit on a
     cycle, so it runs on the retimed graph the schedule executes. *)
  let retimed = Dataflow.Retiming.apply dfg (Schedule.retiming sched) in
  let bound = Dataflow.Iteration_bound.exact_ceil retimed in
  let blocking_edges =
    List.filter_map
      (fun e ->
        match Timing.psl_edge sched e with
        | Some psl -> Some (e, psl)
        | None -> None)
      (Csdfg.edges dfg)
    |> List.sort (fun (_, a) (_, b) -> compare b a)
    |> take k
  in
  {
    sched;
    length;
    bound;
    gap = Option.map (fun b -> length - b) bound;
    critical_cycle = Dataflow.Iteration_bound.critical_cycle retimed;
    binding = binding_constraint sched;
    utilization = Metrics.utilization sched;
    per_pe = pe_utilization sched;
    comm_cost = Metrics.comm_cost_per_iteration sched;
    cross_edges = Metrics.cross_edges sched;
    traffic = traffic_matrix sched;
    links = Option.map (link_traffic sched) topo;
    blocking_edges = blocking_edges;
    blocking_nodes = blocking_nodes_of_journal journal ~k ~n:(Csdfg.n_nodes dfg);
    measured;
  }

let pp_report ppf r =
  let dfg = Schedule.dfg r.sched in
  let label = Csdfg.label dfg in
  Fmt.pf ppf "@[<v>";
  Fmt.pf ppf "schedule %s on %s: length %d" (Csdfg.name dfg)
    (Comm.name (Schedule.comm r.sched))
    r.length;
  (match (r.bound, r.gap) with
  | Some b, Some g ->
      Fmt.pf ppf ", iteration bound %d (gap %d%s)" b g
        (if g = 0 then ", rate-optimal" else "")
  | _ -> Fmt.pf ppf " (acyclic: no iteration bound)");
  Fmt.pf ppf "@,";
  (match r.critical_cycle with
  | Some cycle ->
      Fmt.pf ppf "critical cycle: %s@,"
        (String.concat " -> " (List.map label cycle))
  | None -> ());
  Fmt.pf ppf "length bound by %a@," (Obs.Journal.pp_binding ~label) r.binding;
  Fmt.pf ppf "utilization %.1f%%, comm %d step%s/iteration over %d cross edge%s@,"
    (100. *. r.utilization) r.comm_cost
    (if r.comm_cost = 1 then "" else "s")
    r.cross_edges
    (if r.cross_edges = 1 then "" else "s");
  (match r.measured with
  | Some m ->
      Fmt.pf ppf
        "measured execution (%s, %d iterations): period %.2f vs static %d \
         (slowdown %.3f), makespan %d, %d msgs / %d hops, peak link backlog \
         %d@,"
        m.policy m.iterations m.period r.length m.slowdown m.makespan
        m.messages m.hops m.backlog
  | None -> ());
  Fmt.pf ppf "per-PE occupancy (steps 1..%d)%s:@," r.length
    (match r.measured with Some _ -> " | measured utilization" | None -> "");
  List.iter
    (fun u ->
      let measured_col =
        match r.measured with
        | Some m when u.pe < Array.length m.per_pe_util ->
            Fmt.str "  measured %.0f%%" (100. *. m.per_pe_util.(u.pe))
        | _ -> ""
      in
      Fmt.pf ppf "  pe%-2d |%s| %d/%d%s@," (u.pe + 1) u.timeline u.busy
        r.length measured_col)
    r.per_pe;
  Fmt.pf ppf "traffic (volume/iteration, source row -> destination column):@,";
  Fmt.pf ppf "%a@," pp_traffic r.traffic;
  (match r.links with
  | Some [] -> Fmt.pf ppf "link traffic: none (no cross-processor edges)@,"
  | Some links ->
      Fmt.pf ppf "link traffic (routed volume/iteration):@,";
      List.iter
        (fun ((a, b), v) -> Fmt.pf ppf "  pe%d -- pe%d  %d@," (a + 1) (b + 1) v)
        links
  | None -> ());
  (match r.blocking_edges with
  | [] -> ()
  | edges ->
      Fmt.pf ppf "top blocking edges (projected schedule length):@,";
      List.iter
        (fun ((e : Csdfg.attr G.edge), psl) ->
          Fmt.pf ppf "  %s -> %s (delay %d): psl %d@," (label e.G.src)
            (label e.G.dst) (Schedule.delay r.sched e) psl)
        edges);
  (match r.blocking_nodes with
  | [] -> ()
  | nodes ->
      Fmt.pf ppf "hardest startup placements (journal):@,";
      List.iter
        (fun b ->
          Fmt.pf ppf "  %s: %d rejection%s (%d comm-bound, %d occupied, %d tie-break)@,"
            (label b.node) b.rejections
            (if b.rejections = 1 then "" else "s")
            b.comm_bound b.occupied b.tiebreak)
        nodes);
  Fmt.pf ppf "@]"

type explanation = {
  subject : int;
  schedule : Schedule.t;
  placed : Obs.Journal.event option;
  rejected : Obs.Journal.event list;
  moves : Obs.Journal.event list;
  rotations : int;
  entry : Schedule.entry option;
}

let explain ?(journal = []) sched ~node =
  let dfg = Schedule.dfg sched in
  if node < 0 || node >= Csdfg.n_nodes dfg then
    invalid_arg "Analysis.explain: node out of range";
  let placed = ref None in
  let rejected = ref [] in
  let moves = ref [] in
  let rotations = ref 0 in
  List.iter
    (fun (ev : Obs.Journal.event) ->
      match ev with
      | Candidate { node = v; _ } when v = node -> rejected := ev :: !rejected
      | Placed { node = v; _ } when v = node && !placed = None ->
          placed := Some ev
      | Rotated { nodes } when List.mem node nodes -> incr rotations
      | Refine_move { node = v; _ } when v = node -> moves := ev :: !moves
      | _ -> ())
    journal;
  {
    subject = node;
    schedule = sched;
    placed = !placed;
    rejected = List.rev !rejected;
    moves = List.rev !moves;
    rotations = !rotations;
    entry = Schedule.entry sched node;
  }

let pp_explanation ppf x =
  let dfg = Schedule.dfg x.schedule in
  let label = Csdfg.label dfg in
  let pp_event = Obs.Journal.pp_event ~label in
  Fmt.pf ppf "@[<v>node %s (time %d)@," (label x.subject)
    (Csdfg.time dfg x.subject);
  (match x.placed with
  | Some ev -> Fmt.pf ppf "startup: %a@," pp_event ev
  | None -> ());
  (match x.rejected with
  | [] ->
      if x.placed = None && x.moves = [] && x.rotations = 0 then
        Fmt.pf ppf "no journal events (run with the journal enabled to see \
                    placement decisions)@,"
  | evs ->
      Fmt.pf ppf "rejected slots:@,";
      List.iter (fun ev -> Fmt.pf ppf "  %a@," pp_event ev) evs);
  if x.rotations > 0 then
    Fmt.pf ppf "retimed by %d compaction pass%s@," x.rotations
      (if x.rotations = 1 then "" else "es");
  (match x.moves with
  | [] -> ()
  | evs ->
      Fmt.pf ppf "local-search moves:@,";
      List.iter (fun ev -> Fmt.pf ppf "  %a@," pp_event ev) evs);
  (match x.entry with
  | Some { Schedule.cb; pe } ->
      Fmt.pf ppf "final slot: cs %d on pe%d (through cs %d)" cb (pe + 1)
        (Schedule.ce x.schedule x.subject)
  | None -> Fmt.pf ppf "final slot: unassigned");
  Fmt.pf ppf "@]"
