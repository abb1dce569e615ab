module P = Protocol

let g_queue_depth = Obs.Counters.gauge "service.queue_depth"
let h_latency = Obs.Histogram.histogram "service.request_latency"
let h_queue_wait = Obs.Histogram.histogram "service.queue_wait"
let c_rejected = Obs.Counters.counter "service.rejected_clients"
let c_discarded = Obs.Counters.counter "service.discarded_partial"
let c_shed = Obs.Counters.counter "service.shed_requests"
let c_slow = Obs.Counters.counter "service.slow_clients"

type config = {
  socket_path : string;
  capacity : int;
  domains : int option;
  max_clients : int;
  max_queue : int;
  default_deadline_ms : int option;
  state_dir : string option;
  write_timeout : float;
  drain_timeout : float;
  handle_signals : bool;
}

let default_config ~socket_path =
  {
    socket_path;
    capacity = 256;
    domains = None;
    max_clients = 64;
    max_queue = 1024;
    default_deadline_ms = None;
    state_dir = None;
    write_timeout = 10.;
    drain_timeout = 5.;
    handle_signals = false;
  }

(* One connected client.  [inbuf] accumulates bytes until a newline
   completes a request; its first [scanned] bytes hold none.  [out]
   holds reply bytes not yet accepted by the socket.  Requests must be
   newline-terminated: an unterminated tail at EOF is discarded, not
   parsed.  [refused] marks a line over [max_line]; [eof] ends reading.
   [last_progress] is the wall clock of the last successful write — the
   slow-client detector's evidence. *)
type client = {
  fd : Unix.file_descr;
  inbuf : Buffer.t;
  mutable scanned : int;
  mutable out : string;
  mutable eof : bool;
  mutable refused : bool;
  mutable last_progress : float;
}

(* The longest request line, about 2.7x the 6.2 MB JSON-escaped text of
   scale:100000, the largest graph the repository builds. *)
let max_line = 16 lsl 20

let too_large =
  P.reply_to_json
    (P.Error_reply
       {
         id = None;
         err =
           P.err "too_large"
             (Printf.sprintf "request line exceeds %d bytes" max_line);
       })

let chunk = Bytes.create 65536

(* First [n] elements and the rest, order preserved. *)
let rec split_at n = function
  | [] -> ([], [])
  | l when n <= 0 -> ([], l)
  | x :: tl ->
      let first, rest = split_at (n - 1) tl in
      (x :: first, rest)

(* Pop the complete lines out of [c.inbuf], scanning only the bytes
   that arrived since the last call.  At a line over [max_line],
   finished or not, the client is refused: the lines before it are
   served, it and everything after it stay unread.  A client at EOF
   has none left: its lines were taken in the iteration they arrived,
   and a refused client is refused once. *)
let take_lines c =
  let b = c.inbuf in
  let n = Buffer.length b in
  let rec split lines start i =
    if i >= n || i - start > max_line then (lines, start)
    else if Buffer.nth b i <> '\n' then split lines start (i + 1)
    else split (Buffer.sub b start (i - start) :: lines) (i + 1) (i + 1)
  in
  if c.eof then []
  else begin
    let lines, start = split [] 0 c.scanned in
    if start > 0 then begin
      let rest = Buffer.sub b start (n - start) in
      Buffer.clear b;
      Buffer.add_string b rest
    end;
    c.scanned <- n - start;
    if n - start > max_line then begin
      c.refused <- true;
      c.eof <- true
    end;
    List.rev lines
  end

let read_into c =
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | 0 -> c.eof <- true
  | n -> Buffer.add_subbytes c.inbuf chunk 0 n
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
      c.eof <- true
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()

let flush_some c =
  if c.out <> "" then
    match Unix.write_substring c.fd c.out 0 (String.length c.out) with
    | n ->
        c.out <- String.sub c.out n (String.length c.out - n);
        if n > 0 then c.last_progress <- Unix.gettimeofday ()
    | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
        c.out <- "";
        c.eof <- true
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()

let close_client c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* Best-effort drain on shutdown so the shutdown ack (and any replies
   queued behind it) reach their clients — capped by a wall-clock
   budget so one dead peer cannot hang shutdown forever.  The fd stays
   non-blocking; readiness is awaited with a deadline-bounded select. *)
let drain_and_close ?(timeout = 5.0) c =
  let deadline = Unix.gettimeofday () +. timeout in
  (try
     while
       c.out <> "" && (not c.eof) && Unix.gettimeofday () < deadline
     do
       let remaining = deadline -. Unix.gettimeofday () in
       match Unix.select [] [ c.fd ] [] (max 0.01 remaining) with
       | _, _ :: _, _ -> flush_some c
       | _ -> ()
     done
   with Unix.Unix_error _ -> ());
  close_client c

(* A socket file with nothing listening behind it (a previous daemon
   died hard) is safe to replace; a live one is not. *)
let claim_socket path =
  if Sys.file_exists path then
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect probe (Unix.ADDR_UNIX path) with
    | () ->
        Unix.close probe;
        Error (Printf.sprintf "%s: a server is already listening" path)
    | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) ->
        Unix.close probe;
        (try Unix.unlink path with Unix.Unix_error _ -> ());
        Ok ()
    | exception Unix.Unix_error (e, _, _) ->
        Unix.close probe;
        Error (Printf.sprintf "%s: %s" path (Unix.error_message e))
  else Ok ()

let run ?(on_ready = fun () -> ()) cfg =
  match claim_socket cfg.socket_path with
  | Error _ as e -> e
  | Ok () -> (
      let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      match
        Unix.bind listen_fd (Unix.ADDR_UNIX cfg.socket_path);
        Unix.listen listen_fd 16
      with
      | exception Unix.Unix_error (e, _, _) ->
          (try Unix.close listen_fd with Unix.Unix_error _ -> ());
          Error
            (Printf.sprintf "cannot bind %s: %s" cfg.socket_path
               (Unix.error_message e))
      | () ->
          (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
           with Invalid_argument _ -> ());
          Unix.set_nonblock listen_fd;
          match
            Engine.create ~capacity:cfg.capacity
              ?default_deadline_ms:cfg.default_deadline_ms
              ?state_dir:cfg.state_dir ()
          with
          | exception Failure msg ->
              (try Unix.close listen_fd with Unix.Unix_error _ -> ());
              (try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ());
              Error msg
          | engine ->
          let clients = ref [] in
          let stopping = ref false in
          (* Signal-driven shutdown mirrors the shutdown op: stop the
             loop, drain within the budget, unlink the socket.  The flag
             is an Atomic because OCaml runs signal handlers at safe
             points of whichever domain is active. *)
          let signalled = Atomic.make false in
          let previous_handlers =
            if not cfg.handle_signals then []
            else
              List.filter_map
                (fun sg ->
                  match
                    Sys.signal sg
                      (Sys.Signal_handle (fun _ -> Atomic.set signalled true))
                  with
                  | old -> Some (sg, old)
                  | exception (Invalid_argument _ | Sys_error _) -> None)
                [ Sys.sigterm; Sys.sigint ]
          in
          let restore_handlers () =
            List.iter
              (fun (sg, old) ->
                try Sys.set_signal sg old
                with Invalid_argument _ | Sys_error _ -> ())
              previous_handlers
          in
          (* EWMA of per-request service time, the evidence behind the
             retry_after_ms hint on overloaded replies. *)
          let ewma_ns = ref 0.0 in
          let retry_after_ms ~pending =
            let per_req =
              if !ewma_ns > 0. then !ewma_ns else 50. *. 1e6 (* pre-data guess *)
            in
            max 1 (min 30_000 (int_of_float (per_req *. float_of_int pending /. 1e6)))
          in
          on_ready ();
          Obs.Log.emit
            ~kv:
              [
                ("socket", Obs.Log.S cfg.socket_path);
                ("capacity", Obs.Log.I cfg.capacity);
                ("max_clients", Obs.Log.I cfg.max_clients);
                ("max_queue", Obs.Log.I cfg.max_queue);
                ( "state",
                  Obs.Log.S (Option.value ~default:"none" cfg.state_dir) );
              ]
            Obs.Log.Info "serve.start";
          while (not !stopping) && not (Atomic.get signalled) do
            let rds =
              listen_fd
              :: List.filter_map
                   (fun c -> if c.eof then None else Some c.fd)
                   !clients
            in
            let wrs =
              List.filter_map
                (fun c -> if c.out <> "" then Some c.fd else None)
                !clients
            in
            (* With pending output the wait is bounded so the slow-client
               detector gets to run even when the stalled peer's buffer
               never signals writable. *)
            let select_timeout = if wrs = [] then -1.0 else 0.25 in
            let readable, writable, _ =
              try Unix.select rds wrs [] select_timeout
              with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
            in
            (* New connections. *)
            if List.mem listen_fd readable then begin
              match Unix.accept listen_fd with
              | fd, _ ->
                  if List.length !clients >= cfg.max_clients then begin
                    Obs.Counters.incr c_rejected;
                    Obs.Log.emit
                      ~kv:[ ("max_clients", Obs.Log.I cfg.max_clients) ]
                      Obs.Log.Warn "client.rejected";
                    try Unix.close fd with Unix.Unix_error _ -> ()
                  end
                  else begin
                    Unix.set_nonblock fd;
                    Obs.Log.emit Obs.Log.Info "client.connect";
                    clients :=
                      !clients
                      @ [
                          {
                            fd;
                            inbuf = Buffer.create 256;
                            scanned = 0;
                            out = "";
                            eof = false;
                            refused = false;
                            last_progress = Unix.gettimeofday ();
                          };
                        ]
                  end
              | exception Unix.Unix_error (_, _, _) -> ()
            end;
            (* Drain readable clients, then answer everything that
               arrived as one batch — admitting at most [max_queue]
               lines.  The excess is shed newest-first with a typed
               [overloaded] reply carrying a backoff hint, so overload
               degrades into fast, explicit rejections instead of
               unbounded latency for everyone. *)
            List.iter
              (fun c -> if List.mem c.fd readable then read_into c)
              !clients;
            let intake = List.concat_map
                (fun c -> List.map (fun l -> (c, l)) (take_lines c))
                !clients
            in
            let t_intake = Obs.Trace.now_ns () in
            let batch, shed = split_at cfg.max_queue intake in
            if shed <> [] then begin
              let retry = retry_after_ms ~pending:(List.length batch) in
              List.iter
                (fun (c, line) ->
                  Obs.Counters.incr c_shed;
                  let id =
                    match P.parse_request line with
                    | Ok (id, _, _) -> Some id
                    | Error (id, _) -> id
                  in
                  Obs.Log.emit
                    ?request_id:id
                    ~kv:
                      [
                        ("queue", Obs.Log.I (List.length batch));
                        ("max_queue", Obs.Log.I cfg.max_queue);
                        ("retry_after_ms", Obs.Log.I retry);
                      ]
                    Obs.Log.Warn "serve.shed";
                  let reply =
                    P.reply_to_json
                      (P.Error_reply
                         {
                           id;
                           err =
                             P.err ~retry_after_ms:retry "overloaded"
                               (Printf.sprintf
                                  "request queue is full (max_queue %d) — \
                                   retry after the hinted backoff"
                                  cfg.max_queue);
                         })
                  in
                  c.out <- c.out ^ reply ^ "\n")
                shed
            end;
            if batch <> [] then begin
              Obs.Counters.set g_queue_depth (List.length batch);
              Engine.set_load engine ~queue_depth:(List.length batch)
                ~active_clients:(List.length !clients);
              let t0 = Obs.Trace.now_ns () in
              let wait = t0 - t_intake in
              let replies =
                Engine.handle_batch ?domains:cfg.domains engine
                  (List.map snd batch)
              in
              let dt = Obs.Trace.now_ns () - t0 in
              let n = List.length batch in
              ewma_ns :=
                if !ewma_ns = 0. then float_of_int dt /. float_of_int n
                else
                  (0.8 *. !ewma_ns)
                  +. (0.2 *. (float_of_int dt /. float_of_int n));
              List.iter2
                (fun (c, _) (reply, continue) ->
                  Obs.Histogram.observe h_queue_wait wait;
                  Obs.Histogram.observe h_latency dt;
                  c.out <- c.out ^ reply ^ "\n";
                  if continue = `Shutdown then stopping := true)
                batch replies
            end;
            (* A refused client's too_large reply follows the replies to
               its earlier lines; the connection closes once it is out. *)
            List.iter
              (fun c ->
                if c.refused then begin
                  c.refused <- false;
                  c.out <- c.out ^ too_large ^ "\n"
                end)
              !clients;
            (* Push replies out; disconnect peers that have not accepted
               a byte in [write_timeout], whether or not they are still
               sending; drop finished clients. *)
            List.iter
              (fun c ->
                if List.mem c.fd writable || c.out <> "" then flush_some c)
              !clients;
            let now = Unix.gettimeofday () in
            List.iter
              (fun c ->
                if
                  c.out <> "" && now -. c.last_progress > cfg.write_timeout
                then begin
                  Obs.Counters.incr c_slow;
                  Obs.Log.emit
                    ~kv:
                      [
                        ("stalled_bytes", Obs.Log.I (String.length c.out));
                        ("write_timeout_s", Obs.Log.F cfg.write_timeout);
                      ]
                    Obs.Log.Warn "client.slow_disconnect";
                  c.out <- "";
                  c.eof <- true
                end)
              !clients;
            let gone, alive =
              List.partition (fun c -> c.eof && c.out = "") !clients
            in
            List.iter
              (fun c ->
                let pending = Buffer.length c.inbuf in
                if pending > 0 then begin
                  Obs.Counters.incr c_discarded;
                  Obs.Log.emit
                    ~kv:[ ("bytes", Obs.Log.I pending) ]
                    Obs.Log.Warn "client.discarded_partial"
                end
                else Obs.Log.emit Obs.Log.Info "client.disconnect";
                close_client c)
              gone;
            clients := alive
          done;
          if Atomic.get signalled then
            Obs.Log.emit
              ~kv:[ ("drain_timeout_s", Obs.Log.F cfg.drain_timeout) ]
              Obs.Log.Info "serve.signal";
          List.iter (drain_and_close ~timeout:cfg.drain_timeout) !clients;
          restore_handlers ();
          Engine.close engine;
          (try Unix.close listen_fd with Unix.Unix_error _ -> ());
          (try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ());
          Obs.Log.emit Obs.Log.Info "serve.stop";
          Ok ())
