type t = {
  fd : Unix.file_descr;
  inbuf : Buffer.t;  (* bytes received beyond the last returned line *)
}

type error = Connect_failed of string | Disconnected

let error_to_string = function
  | Connect_failed msg -> Printf.sprintf "cannot connect: %s" msg
  | Disconnected -> "server closed the connection"

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> Ok { fd; inbuf = Buffer.create 4096 }
  | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error
        (Connect_failed (Printf.sprintf "%s: %s" path (Unix.error_message e)))

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

(* Write [s] whole, or stop silently where the peer closed: what it
   said before closing is still to be read. *)
let send_all t s =
  let len = String.length s in
  let rec go off =
    if off < len then
      match Unix.write_substring t.fd s off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ()
  in
  go 0

(* Take one line off the buffer, reading more as needed. *)
let recv_line t =
  let chunk = Bytes.create 65536 in
  let rec take () =
    let s = Buffer.contents t.inbuf in
    match String.index_opt s '\n' with
    | Some i ->
        Buffer.clear t.inbuf;
        Buffer.add_substring t.inbuf s (i + 1) (String.length s - i - 1);
        Ok (String.sub s 0 i)
    | None -> (
        match Unix.read t.fd chunk 0 (Bytes.length chunk) with
        | 0 -> Error Disconnected
        | n ->
            Buffer.add_subbytes t.inbuf chunk 0 n;
            take ()
        | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
            Error Disconnected)
  in
  take ()

(* The reply is read even when the send stops short: the server answers
   a line over its cap with too_large and closes before reading it all. *)
let rpc_line t line =
  send_all t (line ^ "\n");
  recv_line t

(* Jittered exponential backoff, deterministic under [seed] so tests
   can assert the exact schedule.  Delay [i] is drawn from
   [base * 2^i * [0.5, 1.0)] with base 50ms; the jitter comes from a
   small LCG, not [Random], so library users' RNG state is untouched. *)
let backoff_base = 0.05

let backoff_delays ~retries ~seed =
  let state = ref (seed land 0x3FFFFFFF) in
  let next () =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    float_of_int !state /. float_of_int 0x40000000
  in
  List.init (max 0 retries) (fun i ->
      let cap = backoff_base *. (2. ** float_of_int i) in
      cap *. (0.5 +. (0.5 *. next ())))

type retrying = {
  socket : string;
  sleep : float -> unit;
  delays : float array;
  mutable conn : t option;
  mutable attempts : int;
}

let retrying ?(sleep = Unix.sleepf) ~retries ~seed socket =
  {
    socket;
    sleep;
    delays = Array.of_list (backoff_delays ~retries ~seed);
    conn = None;
    attempts = 0;
  }

let retrying_attempts r = r.attempts

let retrying_close r =
  Option.iter close r.conn;
  r.conn <- None

(* One request line with up to [Array.length r.delays] transport-level
   retries.  Only [Connect_failed] and [Disconnected] are retried —
   they are the transport telling us nothing definitive happened (and
   requests are idempotent: the cache is content-addressed, so a resend
   after an ambiguous disconnect can only turn a miss into a hit).  A
   reply that parses — including typed server errors like [overloaded]
   or [deadline_exceeded] — is a definitive answer and is returned as
   is; honouring [retry_after_ms] is the caller's policy, not ours. *)
let retrying_rpc_line r line =
  let budget = Array.length r.delays in
  let rec go attempt =
    let backoff e =
      if attempt >= budget then Error e
      else begin
        r.attempts <- r.attempts + 1;
        r.sleep r.delays.(attempt);
        go (attempt + 1)
      end
    in
    let conn_result =
      match r.conn with Some c -> Ok c | None -> connect r.socket
    in
    match conn_result with
    | Error e -> backoff e
    | Ok c -> (
        r.conn <- Some c;
        match rpc_line c line with
        | Ok _ as ok -> ok
        | Error Disconnected ->
            close c;
            r.conn <- None;
            backoff Disconnected
        | Error _ as e -> e)
  in
  go 0
