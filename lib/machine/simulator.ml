module Csdfg = Dataflow.Csdfg
module Schedule = Cyclo.Schedule
module G = Digraph.Graph

type policy = Contention_free | Fifo_links
type transport = Cyclo.Cachekey.transport = Store_and_forward | Wormhole

type stats = {
  policy : policy;
  transport : transport;
  iterations : int;
  makespan : int;
  average_period : float;
  messages : int;
  message_hops : int;
  max_link_backlog : int;
  busy : int array;
  per_pe_utilization : float array;
  utilization : float;
  faults : Faults.report option;
}

(* A message in flight: the data of one cross-processor edge delivery,
   walking its shortest route one store-and-forward hop at a time. *)
type message = {
  id : int;  (* dense send-order id, 0-based *)
  volume : int;
  src_node : int;
  target : int;  (* destination instance index *)
  sent_at : int;
  mutable queued_at : int;  (* when it last joined a link queue *)
  mutable remaining : int list;  (* nodes still to visit (head = current) *)
  mutable attempts : int;  (* failed transmissions of the current hop *)
  mutable xmit : int;  (* lifetime transmission count (loss-draw index) *)
}

type link_state = {
  mutable free_at : int;
  waiting : message Queue.t;
  mutable backlog_peak : int;
}

type event =
  | Complete of int  (* instance index *)
  | Hop_done of message  (* message finished occupying a link *)
  | Deliver of message  (* analytic arrival (fault-free transport) *)
  | Hop_attempt of message  (* fault transport: (re)try the current hop *)

let static_bound sched ~iterations =
  let dfg = Schedule.dfg sched in
  let max_ce =
    List.fold_left (fun acc v -> max acc (Schedule.ce sched v)) 0
      (Csdfg.nodes dfg)
  in
  ((iterations - 1) * Schedule.length sched) + max_ce

let c_messages = Obs.Counters.counter "simulator.messages"
let c_hops = Obs.Counters.counter "simulator.message_hops"
let c_events = Obs.Counters.counter "simulator.events"
let c_stalls = Obs.Counters.counter "simulator.stalls"
let g_backlog = Obs.Counters.gauge "simulator.max_link_backlog"
let c_retries = Obs.Counters.counter "simulator.msg_retries"
let c_drops = Obs.Counters.counter "simulator.msg_drops"
let h_latency = Obs.Histogram.histogram "simulator.msg_latency"
let h_backlog = Obs.Histogram.histogram "simulator.link_backlog"
let h_slip = Obs.Histogram.histogram "simulator.instance_slip"
let h_retry_backoff = Obs.Histogram.histogram "simulator.retry_backoff"

let policy_name = function
  | Contention_free -> "contention-free"
  | Fifo_links -> "fifo-links"

let record recorder ev =
  match recorder with None -> () | Some r -> Events.record r ev

(* Links are undirected in fault scenarios. *)
let canon (a, b) = if a <= b then (a, b) else (b, a)

(* What the fault transport consults on every hop of a phase, in that
   phase's processor numbering. *)
type fault_env = {
  seed : int;
  max_retries : int;
  backoff : int;
  windows : ((int * int) * (int * int option)) list;
      (* canonical link -> (from, until); [None] = forever *)
  lossy : ((int * int) * float) list;
      (* canonical link -> loss probability; the largest applies *)
}

type link_condition = Up | Down_until of int | Down_forever

let link_state_at fe lk now =
  List.fold_left
    (fun acc (l, (from_t, until)) ->
      if l <> lk || from_t > now then acc
      else
        match (acc, until) with
        | Down_forever, _ | _, None -> Down_forever
        | Down_until u, Some u' -> if u' > now then Down_until (max u u') else acc
        | Up, Some u' -> if u' > now then Down_until u' else acc)
    Up fe.windows

let loss_on fe lk =
  List.fold_left
    (fun acc (l, p) -> if l = lk then max acc p else acc)
    0. fe.lossy

(* One self-timed phase of a run.  A fault-free run is a single identity
   phase; a fault run that recovers resumes in a second phase on the
   degraded machine, whose processors are renumbered. *)
type phase = {
  t0 : int;  (* clock origin: processors and links are free from here *)
  iter0 : int;  (* global iteration of this phase's iteration 0 *)
  pe_map : int array;  (* phase pe -> original pe, for every event *)
  halt : int;  (* no instance starts at or after this time *)
  dead : int array;  (* phase pe -> death time, [max_int] = alive *)
  msg_base : int;  (* id of the phase's first message *)
  faults : fault_env option;  (* [None]: the fault-free transport *)
}

let identity_phase np faults =
  {
    t0 = 0;
    iter0 = 0;
    pe_map = Array.init np Fun.id;
    halt = max_int;
    dead = Array.make np max_int;
    msg_base = 0;
    faults;
  }

type phase_result = {
  r_completion : int array;  (* per instance, [-1] = never ran *)
  r_makespan : int;
  r_busy : int array;  (* phase pe numbering *)
  r_messages : int;
  r_delivered : int;
  r_hops : int;
  r_backlog : int;
  r_retries : int;
  r_drops : int;
}

(* The event loop.  Each processor runs its instances in static order;
   an instance starts once its inputs have arrived and its processor is
   free, and a start behind the static promise is a slip attributed to
   what bound it.  Only the crossing of a link depends on the transport:
   - fault-free ([ph.faults = None]): contention-free transfers and
     wormhole circuits are analytic, one [Deliver] per message; FIFO
     store-and-forward steps hop by hop, and a link its holder leaves
     goes to the head waiter even when a message arriving at that step
     has already taken it — the known double-booking (docs/model.md,
     "Execution semantics");
   - faults: store-and-forward stepped hop by hop under either policy,
     so outage windows and loss draws apply per hop (with no active
     fault the per-hop times sum to the analytic transit), and a link
     its holder leaves admits waiters only while it stays free.
   Nothing here deadlocks: an instance whose inputs never arrive is never
   started, and the caller decides whether that is a bug or lost work. *)
let event_loop ~policy ~transport ~recorder ph sched topo ~iterations =
  let np = Topology.n_processors topo in
  let dfg = Schedule.dfg sched in
  let n = Csdfg.n_nodes dfg in
  let n_inst = n * iterations in
  let idx v i = (i * n) + v in
  let node_of inst = inst mod n in
  let iter_of inst = inst / n in
  let emit ev = record recorder ev in
  (* Events name the original machine's processors and global
     iterations. *)
  let g_iter inst = iter_of inst + ph.iter0 in
  let o_pe p = ph.pe_map.(p) in
  let o_link a b = (o_pe a, o_pe b) in

  (* The static promise for each instance: iteration [k] of node [v]
     starts at [k * L + CB(v) - 1] after the phase's clock origin (time 0
     = the first control step).  Execution behind this is a {e slip}. *)
  let len = Schedule.length sched in
  let cb0 = Array.init n (fun v -> Schedule.cb sched v - 1) in
  let static_start inst = ph.t0 + (iter_of inst * len) + cb0.(node_of inst) in

  (* Per-processor execution order: static (iteration, CB, node). *)
  let order = Array.make np [] in
  for i = iterations - 1 downto 0 do
    List.iter
      (fun v ->
        let p = Schedule.pe sched v in
        order.(p) <- idx v i :: order.(p))
      (List.sort
         (fun a b ->
           (* reversed, since we cons *)
           match compare (Schedule.cb sched b) (Schedule.cb sched a) with
           | 0 -> compare b a
           | c -> c)
         (Csdfg.nodes dfg))
  done;
  let queue = Array.map Array.of_list order in
  let head = Array.make np 0 in
  let pe_free = Array.make np ph.t0 in

  (* Input bookkeeping.  [last_src] / [last_msg] remember the producer
     node and message id of each instance's latest-arriving input, so a
     late start can be attributed to the edge that bound it.  Inputs
     from before a phase's first iteration live in the recovery
     checkpoint and are available at [t0]. *)
  let missing = Array.make n_inst 0 in
  let ready_at = Array.make n_inst ph.t0 in
  let last_src = Array.make n_inst (-1) in
  let last_msg = Array.make n_inst (-1) in
  List.iter
    (fun (e : Csdfg.attr G.edge) ->
      for i = 0 to iterations - 1 do
        if i - Schedule.delay sched e >= 0 then
          missing.(idx e.G.dst i) <- missing.(idx e.G.dst i) + 1
      done)
    (Csdfg.edges dfg);

  (* Links, keyed by (src * np + dst). *)
  let links = Hashtbl.create 64 in
  let link a b =
    let key = (a * np) + b in
    match Hashtbl.find_opt links key with
    | Some l -> l
    | None ->
        let l =
          { free_at = ph.t0; waiting = Queue.create (); backlog_peak = 0 }
        in
        Hashtbl.add links key l;
        l
  in

  let events = ref Digraph.Pqueue.empty in
  let push t ev = events := Digraph.Pqueue.insert !events t ev in

  let completion = Array.make n_inst (-1) in
  let makespan = ref 0 in
  let message_count = ref 0 in
  let delivered = ref 0 in
  let hop_count = ref 0 in
  let retries = ref 0 in
  let drops = ref 0 in
  let busy = Array.make np 0 in

  (* Start every ready instance at the head of a processor's queue.  An
     instance runs only if it can finish before its processor dies, and
     none starts once the survivors halt for recovery. *)
  let rec try_start p now =
    if head.(p) < Array.length queue.(p) then begin
      let inst = queue.(p).(head.(p)) in
      if missing.(inst) = 0 then begin
        let v = node_of inst in
        let dur = Schedule.duration sched ~node:v ~pe:p in
        let prev_free = pe_free.(p) in
        let start = max now (max ready_at.(inst) prev_free) in
        let finish = start + dur in
        if start < ph.halt && finish <= ph.dead.(p) then begin
          pe_free.(p) <- finish;
          busy.(p) <- busy.(p) + dur;
          head.(p) <- head.(p) + 1;
          completion.(inst) <- finish;
          let slip = start - static_start inst in
          Obs.Histogram.observe h_slip (max 0 slip);
          emit
            (Instance_start
               { t = start; node = v; iter = g_iter inst; pe = o_pe p });
          if slip > 0 then begin
            Obs.Counters.incr c_stalls;
            let cause =
              if prev_free >= start && ready_at.(inst) < start then
                Events.Pe_busy
              else if last_src.(inst) >= 0 then
                Events.Input_wait
                  { src = last_src.(inst); dst = v; msg = last_msg.(inst) }
              else Events.Pe_busy
            in
            emit
              (Stall
                 {
                   t = start;
                   node = v;
                   iter = g_iter inst;
                   pe = o_pe p;
                   wait = slip;
                   cause;
                 })
          end;
          push finish (Complete inst);
          try_start p now
        end
      end
    end
  in

  let arrive ~src ~msg inst t =
    missing.(inst) <- missing.(inst) - 1;
    if t >= ready_at.(inst) then begin
      ready_at.(inst) <- t;
      last_src.(inst) <- src;
      last_msg.(inst) <- msg
    end;
    if missing.(inst) = 0 then
      try_start (Schedule.pe sched (node_of inst)) t
  in

  let deliver msg now =
    emit
      (Msg_deliver
         {
           t = now;
           msg = msg.id;
           node = node_of msg.target;
           iter = g_iter msg.target;
           latency = now - msg.sent_at;
         });
    Obs.Histogram.observe h_latency (now - msg.sent_at);
    incr delivered;
    arrive ~src:msg.src_node ~msg:msg.id msg.target now
  in

  (* Store-and-forward cost of one hop: link latency times data volume,
     so weighted topologies are honoured. *)
  let hop_time a b volume = Topology.hops topo a b * volume in
  let route_links route =
    let rec pairs = function
      | a :: (b :: _ as rest) -> (a, b) :: pairs rest
      | _ -> []
    in
    pairs route
  in
  (* The consumer of [msg] waits on the network. *)
  let msg_stall msg ~t ~wait cause =
    let v = node_of msg.target in
    emit
      (Stall
         {
           t;
           node = v;
           iter = g_iter msg.target;
           pe = o_pe (Schedule.pe sched v);
           wait;
           cause;
         })
  in
  (* One store-and-forward hop of [msg] over link [l] = [a -> b], which
     FIFO links book for the hop. *)
  let transmit l msg a b now =
    let dt = hop_time a b msg.volume in
    (match policy with
    | Fifo_links -> l.free_at <- now + dt
    | Contention_free -> ());
    incr hop_count;
    push (now + dt) (Hop_done msg)
  in
  let enqueue l msg now =
    msg.queued_at <- now;
    Obs.Counters.incr c_stalls;
    Queue.add msg l.waiting;
    l.backlog_peak <- max l.backlog_peak (Queue.length l.waiting);
    Obs.Histogram.observe h_backlog (Queue.length l.waiting)
  in
  let admitted w a b now =
    msg_stall w ~t:now ~wait:(now - w.queued_at)
      (Events.Link_busy { link = o_link a b; msg = w.id })
  in

  (* Fault-free transport: the next hop of [msg], or its whole remaining
     route where the transfer is analytic. *)
  let start_hop msg now =
    match msg.remaining with
    | a :: (b :: _ as rest) -> (
        let final = List.nth rest (List.length rest - 1) in
        match (transport, policy) with
        | Store_and_forward, Contention_free ->
            (* whole remaining route in one analytical step *)
            let n_hops = List.length rest in
            let transit = hop_time a final msg.volume in
            hop_count := !hop_count + n_hops;
            (match recorder with
            | None -> ()
            | Some _ ->
                (* per-link completion times: the route is shortest, so
                   the per-hop times sum to the analytic transit *)
                let tcur = ref now in
                let rec walk = function
                  | x :: (y :: _ as more) ->
                      let dt = hop_time x y msg.volume in
                      tcur := !tcur + dt;
                      emit
                        (Msg_hop
                           {
                             t = !tcur;
                             msg = msg.id;
                             link = o_link x y;
                             busy = dt;
                           });
                      walk more
                  | _ -> ()
                in
                walk msg.remaining);
            msg.remaining <- [ final ];
            push (now + transit) (Deliver msg)
        | Store_and_forward, Fifo_links ->
            let l = link a b in
            if l.free_at <= now then transmit l msg a b now
            else enqueue l msg now
        | Wormhole, Contention_free ->
            let transit = Topology.hops topo a final + msg.volume - 1 in
            hop_count := !hop_count + List.length rest;
            (match recorder with
            | None -> ()
            | Some _ ->
                List.iter
                  (fun (x, y) ->
                    emit
                      (Msg_hop
                         {
                           t = now + transit;
                           msg = msg.id;
                           link = o_link x y;
                           busy = transit;
                         }))
                  (route_links msg.remaining));
            msg.remaining <- [ final ];
            push (now + transit) (Deliver msg)
        | Wormhole, Fifo_links ->
            (* Conservative circuit reservation: the whole path is held
               for the transfer window, starting when every link frees. *)
            let hops = route_links msg.remaining in
            let start =
              List.fold_left
                (fun acc (x, y) -> max acc (link x y).free_at)
                now hops
            in
            let window = Topology.hops topo a final + msg.volume - 1 in
            if start > now then begin
              Obs.Counters.incr c_stalls;
              (* blame the link that frees last *)
              let bx, by, _ =
                List.fold_left
                  (fun (bx, by, bf) (x, y) ->
                    let f = (link x y).free_at in
                    if f > bf then (x, y, f) else (bx, by, bf))
                  (let x0, y0 = List.hd hops in
                   (x0, y0, (link x0 y0).free_at))
                  (List.tl hops)
              in
              msg_stall msg ~t:start ~wait:(start - now)
                (Events.Link_busy { link = o_link bx by; msg = msg.id })
            end;
            List.iter
              (fun (x, y) ->
                let l = link x y in
                if start > now then l.backlog_peak <- max l.backlog_peak 1;
                l.free_at <- start + window)
              hops;
            hop_count := !hop_count + List.length hops;
            (match recorder with
            | None -> ()
            | Some _ ->
                List.iter
                  (fun (x, y) ->
                    emit
                      (Msg_hop
                         {
                           t = start + window;
                           msg = msg.id;
                           link = o_link x y;
                           busy = window;
                         }))
                  hops);
            msg.remaining <- [ final ];
            push (start + window) (Deliver msg))
    | _ -> assert false
  in

  (* Fault transport: try to put the current hop on the wire.  A message
     whose hop has a dead endpoint or a link cut forever is parked (never
     delivered); a transient outage is waited out; each transmission
     draws for loss (deterministic in (seed, msg, xmit)) with bounded
     exponential-backoff retries; FIFO contention queues. *)
  let attempt_hop fe msg now =
    match msg.remaining with
    | a :: b :: _ -> (
        let lk = canon (a, b) in
        if ph.dead.(a) <= now || ph.dead.(b) <= now then ()
        else
          match link_state_at fe lk now with
          | Down_forever -> ()
          | Down_until u ->
              Obs.Counters.incr c_stalls;
              msg_stall msg ~t:u ~wait:(u - now)
                (Events.Link_down { link = o_link a b; msg = msg.id });
              push u (Hop_attempt msg)
          | Up -> (
              let l = link a b in
              match policy with
              | Fifo_links when l.free_at > now -> enqueue l msg now
              | Fifo_links | Contention_free ->
                  msg.xmit <- msg.xmit + 1;
                  if
                    Faults.lost ~seed:fe.seed ~msg:msg.id ~xmit:msg.xmit
                      (loss_on fe lk)
                  then begin
                    msg.attempts <- msg.attempts + 1;
                    if msg.attempts > fe.max_retries then begin
                      incr drops;
                      Obs.Counters.incr c_drops;
                      emit
                        (Msg_dropped
                           {
                             t = now;
                             msg = msg.id;
                             link = o_link a b;
                             attempts = msg.attempts;
                           })
                    end
                    else begin
                      let backoff =
                        fe.backoff * (1 lsl min 20 (msg.attempts - 1))
                      in
                      incr retries;
                      Obs.Counters.incr c_retries;
                      Obs.Histogram.observe h_retry_backoff backoff;
                      emit
                        (Msg_retry
                           {
                             t = now;
                             msg = msg.id;
                             link = o_link a b;
                             attempt = msg.attempts;
                             backoff;
                           });
                      push (now + backoff) (Hop_attempt msg)
                    end
                  end
                  else transmit l msg a b now))
    | _ -> assert false
  in

  (* The transport fork: how a message takes its next hop, and how a link
     its holder just left hands itself to the messages queued on it. *)
  let hop msg now =
    match ph.faults with
    | None -> start_hop msg now
    | Some fe -> attempt_hop fe msg now
  in
  let rec admit l a b now =
    match ph.faults with
    | None -> (
        (* the head waiter takes the link, however it is booked *)
        match Queue.take_opt l.waiting with
        | Some w ->
            admitted w a b now;
            transmit l w a b now
        | None -> ())
    | Some fe ->
        (* A waiter that loses its draw (or meets an outage) leaves the
           link idle, so keep admitting while it stays free — otherwise
           messages strand behind it forever. *)
        if l.free_at <= now then (
          match Queue.take_opt l.waiting with
          | Some w ->
              admitted w a b now;
              attempt_hop fe w now;
              admit l a b now
          | None -> ())
  in

  let on_hop_done msg now =
    match msg.remaining with
    | prev :: (next :: _ as rest) -> (
        emit
          (Msg_hop
             {
               t = now;
               msg = msg.id;
               link = o_link prev next;
               busy = hop_time prev next msg.volume;
             });
        msg.attempts <- 0;
        (match policy with
        | Fifo_links -> admit (link prev next) prev next now
        | Contention_free -> ());
        msg.remaining <- rest;
        match rest with [ _ ] -> deliver msg now | _ -> hop msg now)
    | _ -> assert false
  in

  let on_complete inst now =
    if now > !makespan then makespan := now;
    let u = node_of inst and i = iter_of inst in
    let p = Schedule.pe sched u in
    emit
      (Instance_finish { t = now; node = u; iter = i + ph.iter0; pe = o_pe p });
    List.iter
      (fun (e : Csdfg.attr G.edge) ->
        let j = i + Schedule.delay sched e in
        if j < iterations then begin
          let w = e.G.dst in
          let q = Schedule.pe sched w in
          if q = p then arrive ~src:u ~msg:(-1) (idx w j) now
          else begin
            let id = ph.msg_base + !message_count in
            incr message_count;
            let msg =
              {
                id;
                volume = Csdfg.volume e;
                src_node = u;
                target = idx w j;
                sent_at = now;
                queued_at = now;
                remaining = Topology.route topo ~src:p ~dst:q;
                attempts = 0;
                xmit = 0;
              }
            in
            emit
              (Msg_send
                 {
                   t = now;
                   msg = id;
                   src = u;
                   dst = w;
                   src_iter = i + ph.iter0;
                   dst_iter = j + ph.iter0;
                   from_pe = o_pe p;
                   to_pe = o_pe q;
                   volume = msg.volume;
                 });
            hop msg now
          end
        end)
      (Csdfg.succ dfg u);
    try_start p now
  in

  (* Kick off. *)
  for p = 0 to np - 1 do
    try_start p ph.t0
  done;
  let rec drain () =
    match Digraph.Pqueue.pop !events with
    | None -> ()
    | Some ((t, ev), rest) ->
        events := rest;
        Obs.Counters.incr c_events;
        (match ev with
        | Complete inst -> on_complete inst t
        | Hop_done msg -> on_hop_done msg t
        | Deliver msg -> deliver msg t
        | Hop_attempt msg -> hop msg t);
        drain ()
  in
  drain ();
  {
    r_completion = completion;
    r_makespan = !makespan;
    r_busy = busy;
    r_messages = !message_count;
    r_delivered = !delivered;
    r_hops = !hop_count;
    r_backlog = Hashtbl.fold (fun _ l acc -> max acc l.backlog_peak) links 0;
    r_retries = !retries;
    r_drops = !drops;
  }

(* Completion time of each iteration's last instance. *)
let iteration_done_of completion ~n ~iterations =
  let d = Array.make iterations 0 in
  Array.iteri
    (fun inst c ->
      let i = inst / n in
      if c > d.(i) then d.(i) <- c)
    completion;
  d

(* Longest prefix of fully completed iterations — the checkpoint. *)
let completed_prefix completion ~n ~iterations =
  let k = ref 0 in
  (try
     for i = 0 to iterations - 1 do
       for v = 0 to n - 1 do
         if completion.((i * n) + v) < 0 then raise Exit
       done;
       incr k
     done
   with Exit -> ());
  !k

(* The asymptotic period of the first [count] iterations of a run that
   began at [t_start], iteration [i] complete at [done_arr.(i)]: measured
   over the second half to skip pipeline fill. *)
let steady_period done_arr ~count ~t_start =
  if count <= 0 then 0.
  else if count = 1 then float_of_int (done_arr.(0) - t_start)
  else begin
    let lo = count / 2 in
    if lo = count - 1 then
      float_of_int (done_arr.(count - 1) - t_start) /. float_of_int count
    else
      float_of_int (done_arr.(count - 1) - done_arr.(lo))
      /. float_of_int (count - 1 - lo)
  end

(* The stats of a run from its totals, [busy] in the original machine's
   numbering. *)
let finish ~policy ~transport ~iterations ~faults ~makespan ~average_period
    ~messages ~hops ~backlog busy =
  Obs.Counters.incr c_messages ~by:messages;
  Obs.Counters.incr c_hops ~by:hops;
  Obs.Counters.set g_backlog backlog;
  let np = Array.length busy in
  let total_busy = Array.fold_left ( + ) 0 busy in
  {
    policy;
    transport;
    iterations;
    makespan;
    average_period;
    messages;
    message_hops = hops;
    max_link_backlog = backlog;
    busy = Array.copy busy;
    per_pe_utilization =
      Array.map
        (fun b ->
          if makespan = 0 then 0.
          else float_of_int b /. float_of_int makespan)
        busy;
    utilization =
      (if makespan = 0 then 0.
       else float_of_int total_busy /. float_of_int (np * makespan));
    faults;
  }

(* A fault run: phase 1 on the whole machine under the scenario; after a
   permanent fault, a checkpoint at the completed-iteration prefix, a
   replan for the survivors and phase 2 replaying the rest on the
   degraded machine. *)
let run_with_faults ~policy ~transport ~recorder (armed : Faults.armed) sched
    topo ~iterations =
  let np = Topology.n_processors topo in
  let n = Csdfg.n_nodes (Schedule.dfg sched) in
  let scen = armed.Faults.scenario in
  let seed = armed.Faults.seed in
  (* Decompose the scenario. *)
  let fail_stops =
    List.filter_map
      (function Faults.Pe_fail_stop { pe; at } -> Some (pe, at) | _ -> None)
      scen.Faults.faults
  in
  let windows =
    List.filter_map
      (function
        | Faults.Link_down { a; b; from_t; until } ->
            Some (canon (a, b), (from_t, until))
        | _ -> None)
      scen.Faults.faults
  in
  let lossy =
    List.filter_map
      (function
        | Faults.Link_lossy { a; b; loss } -> Some (canon (a, b), loss)
        | _ -> None)
      scen.Faults.faults
  in
  let env windows lossy =
    {
      seed;
      max_retries = scen.Faults.max_retries;
      backoff = scen.Faults.backoff_base;
      windows;
      lossy;
    }
  in
  let failed_pes = List.sort_uniq compare (List.map fst fail_stops) in
  let failed_links =
    List.sort_uniq compare
      (List.filter_map
         (function lk, (_, None) -> Some lk | _ -> None)
         windows)
  in
  let perm_times =
    List.map snd fail_stops
    @ List.filter_map (function _, (ft, None) -> Some ft | _ -> None) windows
  in
  let t_fault =
    match perm_times with [] -> None | l -> Some (List.fold_left min max_int l)
  in
  let halt =
    match t_fault with
    | None -> max_int
    | Some t -> t + scen.Faults.detect_delay
  in
  (* The injected faults are part of the record. *)
  List.iter
    (function
      | Faults.Pe_fail_stop { pe; at } ->
          record recorder (Events.Pe_fail { t = at; pe })
      | Faults.Link_down { a; b; from_t; until } ->
          record recorder
            (Events.Link_fail { t = from_t; link = (a, b); until })
      | Faults.Link_lossy _ -> ())
    scen.Faults.faults;
  let dead = Array.make np max_int in
  List.iter (fun (pe, at) -> if at < dead.(pe) then dead.(pe) <- at) fail_stops;
  let r1 =
    event_loop ~policy ~transport ~recorder
      { (identity_phase np (Some (env windows lossy))) with halt; dead }
      sched topo ~iterations
  in
  let k0 = completed_prefix r1.r_completion ~n ~iterations in
  let done1 = iteration_done_of r1.r_completion ~n ~iterations in
  let pre_fault_period =
    if k0 = 0 then float_of_int (Schedule.length sched)
    else steady_period done1 ~count:k0 ~t_start:0
  in
  let finish = finish ~policy ~transport ~iterations in
  let lost_in completion =
    Array.fold_left (fun acc c -> if c < 0 then acc + 1 else acc) 0 completion
  in
  let base =
    {
      Faults.scenario_name = scen.Faults.name;
      seed;
      failed_pes;
      failed_links;
      fault_time = t_fault;
      surviving_pes = np - List.length failed_pes;
      retries = r1.r_retries;
      drops = r1.r_drops;
      undelivered = r1.r_messages - r1.r_delivered;
      lost_instances = lost_in r1.r_completion;
      completed_iterations = k0;
      replayed_iterations = 0;
      pre_fault_period;
      post_fault_period = 0.;
      migration_cost = 0;
      moved_nodes = 0;
      recovery_latency = 0;
      degraded_length = None;
      replan_error = None;
    }
  in
  (* Phase 1 was the whole run: its period is the pre-fault one, which
     covers every iteration when none was lost. *)
  let single report =
    finish ~faults:(Some report) ~makespan:r1.r_makespan
      ~average_period:pre_fault_period ~messages:r1.r_messages ~hops:r1.r_hops
      ~backlog:r1.r_backlog r1.r_busy
  in
  match t_fault with
  | None ->
      (* transient/lossy only: one phase, nothing to replan *)
      single base
  | Some t0_fault -> (
      match Cyclo.Degrade.replan sched topo ~failed_pes ~failed_links with
      | Error e -> single { base with replan_error = Some e }
      | Ok plan ->
          let len2 = Schedule.length plan.Cyclo.Degrade.schedule in
          let np2 = Array.length plan.Cyclo.Degrade.surviving in
          if k0 >= iterations then
            (* the fault landed after the workload was done: the machine
               degrades, but nothing needed replaying *)
            single { base with degraded_length = Some len2 }
          else begin
            (* two-phase recovery: drain, detect, migrate state, resume
               the degraded schedule at the checkpointed iteration *)
            let resume =
              max halt r1.r_makespan + plan.Cyclo.Degrade.migration_cost
            in
            record recorder
              (Events.Degraded
                 {
                   t = resume;
                   survivors = Array.to_list plan.Cyclo.Degrade.surviving;
                   moved = List.length plan.Cyclo.Degrade.moved;
                   migration_cost = plan.Cyclo.Degrade.migration_cost;
                   length = len2;
                 });
            let of_o = plan.Cyclo.Degrade.of_original in
            let tr_link (a, b) =
              if
                a < Array.length of_o
                && b < Array.length of_o
                && of_o.(a) >= 0
                && of_o.(b) >= 0
              then Some (canon (of_o.(a), of_o.(b)))
              else None
            in
            let windows2 =
              List.filter_map
                (fun (lk, (ft, until)) ->
                  match until with
                  | None -> None (* cut links are gone from the machine *)
                  | Some _ ->
                      Option.map (fun lk' -> (lk', (ft, until))) (tr_link lk))
                windows
            in
            let lossy2 =
              List.filter_map
                (fun (lk, p) -> Option.map (fun lk' -> (lk', p)) (tr_link lk))
                lossy
            in
            let iters2 = iterations - k0 in
            let r2 =
              event_loop ~policy ~transport ~recorder
                {
                  t0 = resume;
                  iter0 = k0;
                  pe_map = plan.Cyclo.Degrade.surviving;
                  halt = max_int;
                  dead = Array.make np2 max_int;
                  msg_base = r1.r_messages;
                  faults = Some (env windows2 lossy2);
                }
                plan.Cyclo.Degrade.schedule plan.Cyclo.Degrade.topology
                ~iterations:iters2
            in
            let done2 =
              iteration_done_of r2.r_completion ~n ~iterations:iters2
            in
            let k2 = completed_prefix r2.r_completion ~n ~iterations:iters2 in
            let post_fault_period =
              if k2 = 0 then float_of_int len2
              else steady_period done2 ~count:k2 ~t_start:resume
            in
            let makespan = max r1.r_makespan r2.r_makespan in
            let busy = Array.copy r1.r_busy in
            Array.iteri
              (fun p2 b ->
                let p = plan.Cyclo.Degrade.surviving.(p2) in
                busy.(p) <- busy.(p) + b)
              r2.r_busy;
            let done_all = Array.make iterations 0 in
            Array.blit done1 0 done_all 0 k0;
            Array.blit done2 0 done_all k0 iters2;
            let average_period =
              if k2 = iters2 then
                steady_period done_all ~count:iterations ~t_start:0
              else if post_fault_period > 0. then post_fault_period
              else pre_fault_period
            in
            let report =
              {
                base with
                retries = r1.r_retries + r2.r_retries;
                drops = r1.r_drops + r2.r_drops;
                undelivered =
                  r1.r_messages + r2.r_messages
                  - (r1.r_delivered + r2.r_delivered);
                lost_instances = lost_in r2.r_completion;
                replayed_iterations = iters2;
                post_fault_period;
                migration_cost = plan.Cyclo.Degrade.migration_cost;
                moved_nodes = List.length plan.Cyclo.Degrade.moved;
                recovery_latency = resume - t0_fault;
                degraded_length = Some len2;
              }
            in
            finish ~faults:(Some report) ~makespan ~average_period
              ~messages:(r1.r_messages + r2.r_messages)
              ~hops:(r1.r_hops + r2.r_hops)
              ~backlog:(max r1.r_backlog r2.r_backlog)
              busy
          end)

let execute ?(policy = Contention_free) ?(transport = Store_and_forward)
    ?recorder ?faults sched topo ~iterations =
  if iterations < 1 then invalid_arg "Simulator.execute: iterations < 1";
  (match (faults, transport) with
  | Some _, Wormhole ->
      invalid_arg
        "Simulator.execute: faults require store-and-forward transport"
  | _ -> ());
  if not (Schedule.assigned_all sched) then
    invalid_arg "Simulator.execute: schedule has unassigned nodes";
  let np = Topology.n_processors topo in
  if np <> Schedule.n_processors sched then
    invalid_arg "Simulator.execute: topology size mismatch";
  let fault_args =
    match faults with
    | None -> []
    | Some (armed : Faults.armed) -> (
        match Faults.validate armed.Faults.scenario topo with
        | Error m -> invalid_arg ("Simulator.execute: " ^ m)
        | Ok () ->
            [
              ("faults", armed.Faults.scenario.Faults.name);
              ("seed", string_of_int armed.Faults.seed);
            ])
  in
  Obs.Trace.with_span "simulator.execute"
    ~args:
      (("iterations", string_of_int iterations)
      :: ("policy", policy_name policy)
      :: ("transport", Cyclo.Cachekey.transport_name transport)
      :: fault_args)
  @@ fun () ->
  match faults with
  | Some armed ->
      run_with_faults ~policy ~transport ~recorder armed sched topo ~iterations
  | None ->
      let r =
        event_loop ~policy ~transport ~recorder (identity_phase np None) sched
          topo ~iterations
      in
      if Array.exists (fun c -> c < 0) r.r_completion then
        invalid_arg "Simulator.execute: deadlock (illegal schedule or graph)";
      let n = Csdfg.n_nodes (Schedule.dfg sched) in
      let done_ = iteration_done_of r.r_completion ~n ~iterations in
      finish ~policy ~transport ~iterations ~faults:None
        ~makespan:r.r_makespan
        ~average_period:(steady_period done_ ~count:iterations ~t_start:0)
        ~messages:r.r_messages ~hops:r.r_hops ~backlog:r.r_backlog r.r_busy

let slowdown stats sched =
  let len = Schedule.length sched in
  if len = 0 then 0. else stats.average_period /. float_of_int len

let pp_stats ppf s =
  Fmt.pf ppf
    "policy=%s transport=%s iters=%d makespan=%d period=%.2f msgs=%d \
     hops=%d backlog=%d util=%.2f"
    (policy_name s.policy)
    (Cyclo.Cachekey.transport_name s.transport)
    s.iterations s.makespan s.average_period s.messages s.message_hops
    s.max_link_backlog s.utilization
