let default_label v = "n" ^ string_of_int v

type box = { pe : int; t0 : int; t1 : int; node : int; iter : int }
type arrow = { msg : int; sent : int; from_pe : int; arrived : int; to_pe : int }
type pause = { pe : int; t0 : int; t1 : int }

(* Fold the event stream into drawable primitives: instance boxes
   (start paired with finish by node/iteration), message arrows (send
   paired with delivery by id), and stall spans on the waiting lane. *)
let digest events =
  let starts = Hashtbl.create 64 in
  let sends = Hashtbl.create 64 in
  let boxes = ref [] in
  let arrows = ref [] in
  let pauses = ref [] in
  let horizon = ref 1 in
  List.iter
    (fun ev ->
      horizon := max !horizon (Events.time ev);
      match ev with
      | Events.Instance_start { t; node; iter; pe } ->
          Hashtbl.replace starts (node, iter) (t, pe)
      | Events.Instance_finish { t; node; iter; pe } -> (
          match Hashtbl.find_opt starts (node, iter) with
          | Some (t0, _) ->
              Hashtbl.remove starts (node, iter);
              boxes := { pe; t0; t1 = t; node; iter } :: !boxes
          | None -> ())
      | Events.Msg_send { t; msg; from_pe; _ } ->
          Hashtbl.replace sends msg (t, from_pe)
      | Events.Msg_deliver { t; msg; _ } -> (
          match Hashtbl.find_opt sends msg with
          | Some (sent, from_pe) ->
              (* delivery lane: the consumer's processor, recovered from
                 the matching instance start later; approximate with the
                 arrow's recorded destination when drawing *)
              arrows := { msg; sent; from_pe; arrived = t; to_pe = -1 } :: !arrows
          | None -> ())
      | Events.Stall { t; pe; wait; cause; _ } -> (
          match cause with
          | Events.Link_busy _ | Events.Link_down _ -> ()
          | Events.Input_wait _ | Events.Pe_busy ->
              if wait > 0 then pauses := { pe; t0 = t - wait; t1 = t } :: !pauses)
      | Events.Msg_hop _ | Events.Msg_retry _ | Events.Msg_dropped _
      | Events.Pe_fail _ | Events.Link_fail _ | Events.Degraded _ ->
          ())
    events;
  (* fill in arrow destinations from the send events *)
  let to_pe_of = Hashtbl.create 64 in
  List.iter
    (function
      | Events.Msg_send { msg; to_pe; _ } -> Hashtbl.replace to_pe_of msg to_pe
      | _ -> ())
    events;
  let arrows =
    List.rev_map
      (fun a ->
        match Hashtbl.find_opt to_pe_of a.msg with
        | Some to_pe -> { a with to_pe }
        | None -> a)
      !arrows
    |> List.filter (fun a -> a.to_pe >= 0)
  in
  (List.rev !boxes, arrows, List.rev !pauses, !horizon)

let xml_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (function
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '&' -> Buffer.add_string buf "&amp;"
      | '"' -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* A readable tick spacing: 1/2/5 * 10^k with at most ~20 ticks. *)
let tick_step horizon =
  let rec grow candidates =
    match candidates with
    | [] -> max 1 (horizon / 10)
    | c :: rest -> if horizon / c <= 20 then c else grow rest
  in
  grow [ 1; 2; 5; 10; 20; 50; 100; 200; 500; 1000; 2000; 5000; 10000 ]

let to_svg ?(label = default_label) ?(px_per_step = 8) ~np events =
  if np < 1 then invalid_arg "Timeline.to_svg: np < 1";
  let boxes, arrows, pauses, horizon = digest events in
  let lane_h = 26 and margin_left = 48 and margin_top = 30 in
  let x_of t = margin_left + (t * px_per_step) in
  let lane_y p = margin_top + (p * lane_h) in
  let lane_mid p = lane_y p + (lane_h / 2) in
  let width = x_of horizon + 16 in
  let height = margin_top + (np * lane_h) + 16 in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf
       "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%d\" height=\"%d\" \
        font-family=\"monospace\" font-size=\"11\">\n"
       width height);
  Buffer.add_string buf
    "<defs><marker id=\"arr\" markerWidth=\"8\" markerHeight=\"8\" refX=\"7\" \
     refY=\"3\" orient=\"auto\"><path d=\"M0,0 L7,3 L0,6 z\" \
     fill=\"#b22\"/></marker></defs>\n";
  (* lanes and axis *)
  let step = tick_step horizon in
  let t = ref 0 in
  while !t <= horizon do
    Buffer.add_string buf
      (Printf.sprintf
         "<text x=\"%d\" y=\"%d\" text-anchor=\"middle\" \
          fill=\"#666\">%d</text>\n"
         (x_of !t) (margin_top - 10) !t);
    Buffer.add_string buf
      (Printf.sprintf
         "<line x1=\"%d\" y1=\"%d\" x2=\"%d\" y2=\"%d\" stroke=\"#eee\"/>\n"
         (x_of !t) margin_top (x_of !t)
         (margin_top + (np * lane_h)));
    t := !t + step
  done;
  for p = 0 to np - 1 do
    Buffer.add_string buf
      (Printf.sprintf "<text x=\"4\" y=\"%d\">pe%d</text>\n"
         (lane_mid p + 4) (p + 1));
    Buffer.add_string buf
      (Printf.sprintf
         "<line x1=\"%d\" y1=\"%d\" x2=\"%d\" y2=\"%d\" stroke=\"#ccc\"/>\n"
         margin_left (lane_y p) (x_of horizon) (lane_y p))
  done;
  (* stall spans under the boxes *)
  List.iter
    (fun (s : pause) ->
      Buffer.add_string buf
        (Printf.sprintf
           "<rect x=\"%d\" y=\"%d\" width=\"%d\" height=\"%d\" \
            fill=\"#e66\" fill-opacity=\"0.35\"/>\n"
           (x_of s.t0) (lane_y s.pe + 2)
           (max 1 ((s.t1 - s.t0) * px_per_step))
           (lane_h - 4)))
    pauses;
  (* instance boxes *)
  List.iter
    (fun (b : box) ->
      let w = max 1 ((b.t1 - b.t0) * px_per_step) in
      Buffer.add_string buf
        (Printf.sprintf
           "<rect x=\"%d\" y=\"%d\" width=\"%d\" height=\"%d\" \
            fill=\"#9ecae8\" stroke=\"#333\"/>\n"
           (x_of b.t0) (lane_y b.pe + 2) w (lane_h - 4));
      let name = Printf.sprintf "%s#%d" (label b.node) b.iter in
      if w >= 7 * String.length name then
        Buffer.add_string buf
          (Printf.sprintf
             "<text x=\"%d\" y=\"%d\" text-anchor=\"middle\">%s</text>\n"
             (x_of b.t0 + (w / 2))
             (lane_mid b.pe + 4) (xml_escape name)))
    boxes;
  (* message arrows on top *)
  List.iter
    (fun (a : arrow) ->
      Buffer.add_string buf
        (Printf.sprintf
           "<line x1=\"%d\" y1=\"%d\" x2=\"%d\" y2=\"%d\" stroke=\"#b22\" \
            stroke-width=\"1\" marker-end=\"url(#arr)\" opacity=\"0.7\"/>\n"
           (x_of a.sent) (lane_mid a.from_pe) (x_of a.arrived)
           (lane_mid a.to_pe)))
    arrows;
  (* fault markers: a dead lane is struck through from its fail-stop
     time, degraded-mode resume is a dashed rule across every lane *)
  List.iter
    (fun ev ->
      match ev with
      | Events.Pe_fail { t; pe } when pe >= 0 && pe < np ->
          Buffer.add_string buf
            (Printf.sprintf
               "<line x1=\"%d\" y1=\"%d\" x2=\"%d\" y2=\"%d\" stroke=\"#c00\" \
                stroke-width=\"3\" opacity=\"0.5\"/>\n"
               (x_of t) (lane_mid pe) (x_of horizon) (lane_mid pe));
          Buffer.add_string buf
            (Printf.sprintf
               "<text x=\"%d\" y=\"%d\" fill=\"#c00\">&#10007; pe%d \
                failed</text>\n"
               (x_of t + 4)
               (lane_y pe + lane_h - 6)
               (pe + 1))
      | Events.Degraded { t; length; _ } ->
          Buffer.add_string buf
            (Printf.sprintf
               "<line x1=\"%d\" y1=\"%d\" x2=\"%d\" y2=\"%d\" stroke=\"#808\" \
                stroke-dasharray=\"4 3\" stroke-width=\"2\"/>\n"
               (x_of t) margin_top (x_of t)
               (margin_top + (np * lane_h)));
          Buffer.add_string buf
            (Printf.sprintf
               "<text x=\"%d\" y=\"%d\" fill=\"#808\">degraded (L=%d)</text>\n"
               (x_of t + 4)
               (margin_top - 10 + 10) length)
      | _ -> ())
    events;
  Buffer.add_string buf "</svg>\n";
  Buffer.contents buf

let json_escape = Obs.Json.Writer.escape

let to_chrome_json ?(label = default_label) ~np events =
  if np < 1 then invalid_arg "Timeline.to_chrome_json: np < 1";
  let buf = Buffer.create 4096 in
  let first = ref true in
  let emit line =
    if not !first then Buffer.add_string buf ",\n";
    first := false;
    Buffer.add_string buf "    ";
    Buffer.add_string buf line
  in
  Buffer.add_string buf "{\n  \"traceEvents\": [\n";
  for p = 0 to np - 1 do
    emit
      (Printf.sprintf
         {|{"ph": "M", "pid": 0, "tid": %d, "name": "thread_name", "args": {"name": "pe%d"}}|}
         p (p + 1))
  done;
  emit
    (Printf.sprintf
       {|{"ph": "M", "pid": 0, "tid": %d, "name": "thread_name", "args": {"name": "network"}}|}
       np);
  let starts = Hashtbl.create 64 in
  let sends = Hashtbl.create 64 in
  List.iter
    (fun ev ->
      match ev with
      | Events.Instance_start { t; node; iter; pe } ->
          Hashtbl.replace starts (node, iter) (t, pe)
      | Events.Instance_finish { t; node; iter; _ } -> (
          match Hashtbl.find_opt starts (node, iter) with
          | Some (t0, pe) ->
              Hashtbl.remove starts (node, iter);
              emit
                (Printf.sprintf
                   {|{"ph": "X", "pid": 0, "tid": %d, "ts": %d, "dur": %d, "name": "%s#%d"}|}
                   pe t0 (t - t0)
                   (json_escape (label node))
                   iter)
          | None -> ())
      | Events.Msg_send { t; msg; src; dst; from_pe; to_pe; volume; _ } ->
          Hashtbl.replace sends msg (t, src, dst, from_pe, to_pe, volume)
      | Events.Msg_deliver { t; msg; _ } -> (
          match Hashtbl.find_opt sends msg with
          | Some (sent, src, dst, from_pe, to_pe, volume) ->
              emit
                (Printf.sprintf
                   {|{"ph": "X", "pid": 0, "tid": %d, "ts": %d, "dur": %d, "name": "m%d %s->%s", "args": {"volume": %d, "from_pe": %d, "to_pe": %d}}|}
                   np sent (t - sent) msg
                   (json_escape (label src))
                   (json_escape (label dst))
                   volume (from_pe + 1) (to_pe + 1))
          | None -> ())
      | Events.Stall { t; node; iter; pe; wait; cause } ->
          let cause_s =
            match cause with
            | Events.Input_wait _ -> "input_wait"
            | Events.Link_busy _ -> "link_busy"
            | Events.Link_down _ -> "link_down"
            | Events.Pe_busy -> "pe_busy"
          in
          emit
            (Printf.sprintf
               {|{"ph": "i", "pid": 0, "tid": %d, "ts": %d, "s": "t", "name": "stall %s#%d", "args": {"wait": %d, "cause": "%s"}}|}
               pe t
               (json_escape (label node))
               iter wait cause_s)
      | Events.Msg_retry { t; msg; link = a, b; attempt; backoff } ->
          emit
            (Printf.sprintf
               {|{"ph": "i", "pid": 0, "tid": %d, "ts": %d, "s": "t", "name": "retry m%d", "args": {"link": "pe%d->pe%d", "attempt": %d, "backoff": %d}}|}
               np t msg (a + 1) (b + 1) attempt backoff)
      | Events.Msg_dropped { t; msg; link = a, b; attempts } ->
          emit
            (Printf.sprintf
               {|{"ph": "i", "pid": 0, "tid": %d, "ts": %d, "s": "g", "name": "dropped m%d", "args": {"link": "pe%d->pe%d", "attempts": %d}}|}
               np t msg (a + 1) (b + 1) attempts)
      | Events.Pe_fail { t; pe } ->
          emit
            (Printf.sprintf
               {|{"ph": "i", "pid": 0, "tid": %d, "ts": %d, "s": "g", "name": "pe%d FAILED"}|}
               pe t (pe + 1))
      | Events.Link_fail { t; link = a, b; until } ->
          emit
            (Printf.sprintf
               {|{"ph": "i", "pid": 0, "tid": %d, "ts": %d, "s": "g", "name": "link pe%d-pe%d down", "args": {"until": %d}}|}
               np t (a + 1) (b + 1)
               (match until with Some u -> u | None -> -1))
      | Events.Degraded { t; moved; migration_cost; length; _ } ->
          emit
            (Printf.sprintf
               {|{"ph": "i", "pid": 0, "tid": %d, "ts": %d, "s": "g", "name": "degraded mode", "args": {"moved": %d, "migration_cost": %d, "length": %d}}|}
               np t moved migration_cost length)
      | Events.Msg_hop _ -> ())
    (Events.by_time events);
  Buffer.add_string buf "\n  ],\n  \"displayTimeUnit\": \"ms\"\n}\n";
  Buffer.contents buf
