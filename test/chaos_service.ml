(* Chaos harness for the scheduling daemon: repeatedly SIGKILL the
   server mid-request, optionally corrupt or truncate its warm-restart
   journal, restart it from [--state], and assert that every reply the
   pre-crash daemon ever produced is reproduced byte-identically
   (modulo the ["cached"] flag) — and that no failure path ever
   degrades into an ["internal"] error.

   This is a plain executable, not an Alcotest suite: it forks the
   server as a child process (fork must happen before any Domain is
   spawned, so the harness cannot share a process with the server the
   way test_service.ml's in-process socket tests do).  Exit code 0 on
   success, 1 on any violated invariant, with a one-line verdict on
   stdout either way.

   Knobs (environment):
   - [CHAOS_CYCLES]  kill/restart cycles to run (default 5; CI uses 50)
   - [CHAOS_SEED]    LCG seed for kill timing and corruption (default 1) *)

module P = Service.Protocol
module C = Service.Client

let cycles =
  match Sys.getenv_opt "CHAOS_CYCLES" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> 5)
  | None -> 5

let seed =
  match Sys.getenv_opt "CHAOS_SEED" with
  | Some s -> ( match int_of_string_opt s with Some n -> n | None -> 1)
  | None -> 1

(* Self-contained LCG so runs are reproducible from CHAOS_SEED alone. *)
let rng = ref (seed land 0x3FFFFFFF)

let rand_int bound =
  rng := ((!rng * 1103515245) + 12345) land 0x3FFFFFFF;
  !rng mod bound

let dir =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "ccsched-chaos-%d" (Unix.getpid ()))

let socket_path = Filename.concat dir "chaos.sock"
let journal_path = Filename.concat dir "state.ccsj"
let log_path = Filename.concat dir "server.log"

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("chaos: FAIL: " ^ msg);
      exit 1)
    fmt

(* {2 Server lifecycle} *)

let start_server () =
  (try Unix.unlink socket_path with Unix.Unix_error _ -> ());
  match Unix.fork () with
  | 0 ->
      (* child: structured logs (incl. serve.restore) go to the log
         file the parent greps after corruption cycles *)
      let log_oc =
        open_out_gen [ Open_append; Open_creat ] 0o644 log_path
      in
      Obs.Log.enable ~level:Obs.Log.Info (fun line ->
          output_string log_oc (line ^ "\n");
          flush log_oc);
      let cfg =
        {
          (Service.Server.default_config ~socket_path) with
          capacity = 256;
          domains = Some 1;
          max_clients = 4;
          state_dir = Some dir;
        }
      in
      (match Service.Server.run cfg with
      | Ok () -> exit 0
      | Error msg ->
          prerr_endline ("chaos server: " ^ msg);
          exit 1)
  | pid -> pid

let connect_with_patience () =
  let rec go n =
    match C.connect socket_path with
    | Ok c -> c
    | Error _ when n > 0 ->
        Unix.sleepf 0.01;
        go (n - 1)
    | Error e ->
        fail "server never came up: %s" (C.error_to_string e)
  in
  go 500

let kill_server pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] pid)

let graceful_shutdown conn pid =
  (match C.rpc_line conn (P.request_to_json ~id:9999 P.Shutdown) with
  | Ok _ -> ()
  | Error e -> fail "graceful shutdown failed: %s" (C.error_to_string e));
  C.close conn;
  ignore (Unix.waitpid [] pid)

(* {2 Journal corruption} *)

let corrupt_journal () =
  match
    try Some (Unix.stat journal_path).Unix.st_size
    with Unix.Unix_error _ -> None
  with
  | None | Some 0 -> `Untouched
  | Some size ->
      if rand_int 2 = 0 then begin
        (* torn tail: cut at a uniformly random byte boundary *)
        let cut = rand_int (size + 1) in
        let fd = Unix.openfile journal_path [ Unix.O_RDWR ] 0o644 in
        Unix.ftruncate fd cut;
        Unix.close fd;
        `Truncated cut
      end
      else begin
        (* bit rot: flip one bit of one uniformly random byte *)
        let pos = rand_int size in
        let fd = Unix.openfile journal_path [ Unix.O_RDWR ] 0o644 in
        ignore (Unix.lseek fd pos Unix.SEEK_SET);
        let b = Bytes.create 1 in
        ignore (Unix.read fd b 0 1);
        Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor (1 lsl rand_int 8)));
        ignore (Unix.lseek fd pos Unix.SEEK_SET);
        ignore (Unix.write fd b 0 1);
        Unix.close fd;
        `Flipped pos
      end

(* {2 Invariants} *)

(* cached:true vs cached:false is the one permitted difference between
   a pre-crash reply and its post-restart reproduction *)
let normalize reply =
  let sub = "\"cached\":true" and by = "\"cached\":false" in
  let ls = String.length sub and n = String.length reply in
  let buf = Buffer.create n in
  let i = ref 0 in
  while !i <= n - ls do
    if String.sub reply !i ls = sub then begin
      Buffer.add_string buf by;
      i := !i + ls
    end
    else begin
      Buffer.add_char buf reply.[!i];
      incr i
    end
  done;
  Buffer.add_substring buf reply !i (n - !i);
  Buffer.contents buf

let assert_not_internal ~line reply =
  match P.parse_reply reply with
  | Ok (P.Error_reply { err; _ }) when err.P.code = "internal" ->
      fail "internal error leaked: %s (request %s)" err.P.message line
  | Ok _ -> ()
  | Error msg -> fail "unparseable reply %S: %s" reply msg

(* Every (request line, reply) the daemon ever produced, in order. *)
let recorded : (string * string) list ref = ref []

let rpc_recorded conn line =
  match C.rpc_line conn line with
  | Ok reply ->
      assert_not_internal ~line reply;
      recorded := (line, reply) :: !recorded;
      reply
  | Error e -> fail "rpc failed: %s" (C.error_to_string e)

let verify_history conn =
  List.iter
    (fun (line, expected) ->
      match C.rpc_line conn line with
      | Ok reply ->
          assert_not_internal ~line reply;
          if normalize reply <> normalize expected then
            fail "reply drifted after restart.\nrequest:  %s\nexpected: %s\ngot:      %s"
              line expected reply
      | Error e ->
          fail "replaying %s: %s" line (C.error_to_string e))
    (List.rev !recorded)

let log_contains needle =
  match open_in log_path with
  | exception Sys_error _ -> false
  | ic ->
      let found = ref false in
      (try
         while not !found do
           if
             let line = input_line ic in
             let ln = String.length needle in
             let n = String.length line in
             let rec scan i =
               i + ln <= n && (String.sub line i ln = needle || scan (i + 1))
             in
             scan 0
           then found := true
         done
       with End_of_file -> ());
      close_in ic;
      !found

(* {2 The cycle} *)

let archs = [| "mesh:2x4"; "ring:8"; "hypercube:3"; "linear:8" |]

(* The .csdfg text of the request every cycle kills in flight. *)
let in_flight_graph =
  Dataflow.Io.to_string (Workloads.Random_gen.layered ~nodes:2_000 ~seed:1 ())

let () =
  (try Unix.mkdir dir 0o755
   with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Printf.printf "chaos: %d cycles, seed %d, state %s\n%!" cycles seed dir;
  let corruptions = ref 0 in
  for cycle = 1 to cycles do
    let pid = start_server () in
    let conn = connect_with_patience () in
    (* 1. everything the daemon ever answered must still hold *)
    verify_history conn;
    (* 2. fresh work for this cycle: a schedule and a replan chained on
       it, both journaled once their replies are on the wire *)
    let knobs = { P.default_knobs with P.passes = Some (16 + cycle) } in
    let sched_line =
      P.request_to_json ~id:(2 * cycle)
        (P.Schedule
           {
             graph = P.Workload "fig7";
             arch = archs.(cycle mod Array.length archs);
             knobs;
           })
    in
    let reply = rpc_recorded conn sched_line in
    let session =
      match P.parse_reply reply with
      | Ok (P.Scheduled { session; _ }) -> session
      | _ -> fail "expected a schedule reply, got %s" reply
    in
    ignore
      (rpc_recorded conn
         (P.request_to_json ~id:((2 * cycle) + 1)
            (P.Replan
               {
                 session;
                 fail_pes = [ 1 + rand_int 4 ];
                 fail_links = [];
                 deadline_ms = None;
               })));
    (* 3. kill the daemon mid-request: the kill lands within ~10 ms,
       and the in-flight request is a 2,000-node loop run for 1,000
       passes, which takes about 0.9 s in the dev build — far more than
       any speed-up of a pass can bring inside the kill window *)
    let in_flight =
      P.request_to_json ~id:999
        (P.Schedule
           {
             graph = P.Inline in_flight_graph;
             arch = "mesh:4x4";
             knobs = { P.default_knobs with P.passes = Some 1_000 };
           })
    in
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX socket_path);
    let payload = in_flight ^ "\n" in
    ignore (Unix.write_substring fd payload 0 (String.length payload));
    Unix.sleepf (float_of_int (rand_int 10) /. 1000.);
    kill_server pid;
    (* the transport reports the crash; nothing definitive happened, so
       a retrying client would resend — which verify_history emulates *)
    (match Unix.read fd (Bytes.create 1) 0 1 with
    | 0 -> ()
    | _ -> fail "reply arrived for a request killed mid-flight"
    | exception Unix.Unix_error _ -> ());
    Unix.close fd;
    C.close conn;
    (* 4. sometimes rot the journal before the next incarnation *)
    if rand_int 3 = 0 then begin
      match corrupt_journal () with
      | `Untouched -> ()
      | `Truncated cut ->
          incr corruptions;
          Printf.printf "chaos: cycle %d truncated journal at byte %d\n%!"
            cycle cut
      | `Flipped pos ->
          incr corruptions;
          Printf.printf "chaos: cycle %d flipped a bit at byte %d\n%!" cycle
            pos
    end
  done;
  (* final incarnation: full history replay, then a clean shutdown *)
  let pid = start_server () in
  let conn = connect_with_patience () in
  verify_history conn;
  graceful_shutdown conn pid;
  if not (log_contains "\"event\":\"serve.restore\"") then
    fail "no serve.restore line in %s" log_path;
  Printf.printf
    "chaos: OK — %d cycles, %d replies held byte-identical across %d kills (%d journal corruptions)\n%!"
    cycles
    (List.length !recorded)
    cycles !corruptions;
  (* leave nothing behind on success *)
  List.iter
    (fun f -> try Unix.unlink (Filename.concat dir f) with Unix.Unix_error _ -> ())
    [ "state.ccsj"; "state.ccsj.tmp"; "server.log"; "chaos.sock" ];
  (try Unix.rmdir dir with Unix.Unix_error _ -> ())
