(* Leveled, structured NDJSON logging (schema ccsched-log/1) with the
   same discipline as Trace and Counters: a disabled probe costs
   exactly one atomic flag load, and nothing in this module is on any
   code path unless a caller opted in with [enable].

   One log line is one JSON object on one line.  Rendering happens
   outside the sink lock; the lock only serialises the write itself, so
   concurrent domains interleave whole lines, never bytes. *)

let schema = "ccsched-log/1"

type level = Debug | Info | Warn | Error

let level_to_string = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let severity = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

type value = I of int | S of string | B of bool | F of float

let enabled_flag = Atomic.make false
let min_sev = Atomic.make (severity Info)
let lock = Mutex.create ()
let sink : (string -> unit) ref = ref ignore

let enabled () = Atomic.get enabled_flag
let would_log level = enabled () && severity level >= Atomic.get min_sev

let enable ?(level = Info) write =
  Mutex.protect lock (fun () -> sink := write);
  Atomic.set min_sev (severity level);
  Atomic.set enabled_flag true

let disable () = Atomic.set enabled_flag false

(* Rendering is on the hot request path whenever logging is on, and the
   bench gate holds it to <= 5% of a cache hit, so the inner loops live
   in Json.Writer (shared with every other JSONL exporter): almost no
   logged string needs escaping (one pass decides), and digits go
   straight into the buffer instead of through string_of_int. *)

let add_escaped = Json.Writer.add_escaped
let add_int = Json.Writer.add_int

let render ~ts_ns ~level ~event ?request_id ?session ?duration_ns ?(kv = [])
    () =
  let b = Buffer.create 192 in
  Buffer.add_string b "{\"log\":\"";
  Buffer.add_string b schema;
  Buffer.add_string b "\",\"ts_ns\":";
  add_int b ts_ns;
  Buffer.add_string b ",\"level\":\"";
  Buffer.add_string b (level_to_string level);
  Buffer.add_string b "\",\"event\":\"";
  add_escaped b event;
  Buffer.add_char b '"';
  (match request_id with
  | Some id ->
      Buffer.add_string b ",\"request_id\":";
      add_int b id
  | None -> ());
  (match session with
  | Some s ->
      Buffer.add_string b ",\"session\":\"";
      add_escaped b s;
      Buffer.add_char b '"'
  | None -> ());
  (match duration_ns with
  | Some d ->
      Buffer.add_string b ",\"duration_ns\":";
      add_int b d
  | None -> ());
  List.iter
    (fun (k, v) ->
      Buffer.add_string b ",\"";
      add_escaped b k;
      Buffer.add_string b "\":";
      match v with
      | I n -> add_int b n
      | B true -> Buffer.add_string b "true"
      | B false -> Buffer.add_string b "false"
      | F x -> Buffer.add_string b (Printf.sprintf "%.17g" x)
      | S s ->
          Buffer.add_char b '"';
          add_escaped b s;
          Buffer.add_char b '"')
    kv;
  Buffer.add_char b '}';
  Buffer.contents b

let emit ?request_id ?session ?duration_ns ?kv level event =
  if would_log level then begin
    let line =
      render ~ts_ns:(Trace.now_ns ()) ~level ~event ?request_id ?session
        ?duration_ns ?kv ()
    in
    Mutex.protect lock (fun () -> !sink line)
  end
