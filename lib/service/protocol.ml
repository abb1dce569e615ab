(* ccsched-rpc/1: newline-delimited JSON requests and replies.

   Parsing builds on the Obs.Json reader the repo already ships;
   serialisation is hand-rolled single-line JSON like every other
   emitter here.  Everything is total: a malformed line becomes an
   [Error_reply] with a machine-readable code, never an exception. *)

module Json = Obs.Json

let version = "ccsched-rpc/1"

type graph_spec = Workload of string | Inline of string

type knobs = Cyclo.Cachekey.knobs = {
  mode : Cyclo.Remap.mode;
  passes : int option;
  speeds : int array option;
  slowdown : int;
  transport : Cyclo.Cachekey.transport;
  deadline_ms : int option;
}

let default_knobs = Cyclo.Cachekey.default_knobs

type request =
  | Schedule of { graph : graph_spec; arch : string; knobs : knobs }
  | Replan of {
      session : string;
      fail_pes : int list;
      fail_links : (int * int) list;
      deadline_ms : int option;
    }
  | Stats
  | Metrics
  | Health
  | Shutdown

type err = {
  code : string;
  message : string;
  retry_after_ms : int option;
  best_length : int option;
}

let err ?retry_after_ms ?best_length code message =
  { code; message; retry_after_ms; best_length }

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  capacity : int;
  requests : int;
}

type health = {
  build : string;
  uptime_ns : int;
  rpc_requests : int;
  hit_rate : float;
  cache_entries : int;
  cache_capacity : int;
  queue_depth : int;
  active_clients : int;
  last_replan : string;
  (* memory/GC gauges (ccsched-rpc/1 additive extension: absent fields
     parse as zero, so old clients and old daemons interoperate) *)
  rss_bytes : int;
  peak_rss_bytes : int;
  heap_words : int;
  gc_minor_collections : int;
  gc_major_collections : int;
}

let exposition_content_type = "text/plain; version=0.0.4"

type reply =
  | Scheduled of {
      id : int;
      session : string;
      cached : bool;
      length : int;
      passes : int;
      schedule_json : string;
    }
  | Replanned of {
      id : int;
      session : string;
      cached : bool;
      strategy : string;
      migration_cost : int;
      moved : int;
      length : int;
      surviving : int;
      schedule_json : string;
    }
  | Stats_reply of { id : int; stats : stats }
  | Metrics_reply of { id : int; body : string }
  | Health_reply of { id : int; health : health }
  | Shutdown_ack of { id : int }
  | Error_reply of { id : int option; err : err }

let json_escape = Json.Writer.escape

(* ------------------------------------------------------------------ *)
(* Request parsing                                                      *)
(* ------------------------------------------------------------------ *)

let fail code fmt =
  Printf.ksprintf (fun message -> Error (err code message)) fmt

let validated k =
  match Cyclo.Cachekey.validate k with
  | Ok () -> Ok k
  | Error msg -> fail "bad_request" "%s" msg

(* A number knob that is not an integer decodes as 0, so the validator
   words it like any other out-of-range value. *)
let knob_int v = Option.value ~default:0 (Json.to_int v)

let optional_knob what json =
  match Json.member what json with
  | None | Some Json.Null -> None
  | Some v -> Some (knob_int v)

(* The one JSON codec of the knobs, shared by requests and the journal.
   Absent fields take their defaults.  Errors come in field order: the
   numbers before "speeds" are validated before its syntax is read. *)
let parse_knobs json =
  let ( let* ) = Result.bind in
  let d = default_knobs in
  let enum what table default =
    match Json.member what json with
    | None -> Ok default
    | Some v -> (
        match Option.bind (Json.to_str v) (fun s -> List.assoc_opt s table) with
        | Some x -> Ok x
        | None ->
            fail "bad_request" "%S must be %s" what
              (String.concat " or "
                 (List.map (fun (name, _) -> Printf.sprintf "%S" name) table)))
  in
  let* mode = enum "mode" Cyclo.Cachekey.modes d.mode in
  let* transport = enum "transport" Cyclo.Cachekey.transports d.transport in
  let* k =
    validated
      {
        d with
        mode;
        transport;
        passes = optional_knob "passes" json;
        slowdown =
          Option.fold ~none:d.slowdown ~some:knob_int
            (Json.member "slowdown" json);
      }
  in
  let* speeds =
    match Json.member "speeds" json with
    | None | Some Json.Null -> Ok None
    | Some v -> (
        match Option.map (List.map Json.to_int) (Json.to_list v) with
        | Some ints when List.for_all Option.is_some ints ->
            Ok (Some (Array.of_list (List.map Option.get ints)))
        | _ -> fail "bad_request" "\"speeds\" must be an array of integers")
  in
  validated { k with speeds; deadline_ms = optional_knob "deadline_ms" json }

let add_knobs buf k =
  let d = default_knobs in
  if k.mode <> d.mode then
    Printf.bprintf buf ",\"mode\":\"%s\"" (Cyclo.Cachekey.mode_name k.mode);
  if k.transport <> d.transport then
    Printf.bprintf buf ",\"transport\":\"%s\""
      (Cyclo.Cachekey.transport_name k.transport);
  Option.iter (Printf.bprintf buf ",\"passes\":%d") k.passes;
  if k.slowdown <> d.slowdown then
    Printf.bprintf buf ",\"slowdown\":%d" k.slowdown;
  Option.iter
    (fun a ->
      Printf.bprintf buf ",\"speeds\":[%s]"
        (String.concat "," (List.map string_of_int (Array.to_list a))))
    k.speeds;
  Option.iter (Printf.bprintf buf ",\"deadline_ms\":%d") k.deadline_ms

let parse_pe_list name json =
  match Json.member name json with
  | None -> Ok []
  | Some v -> (
      match Option.map (List.map Json.to_int) (Json.to_list v) with
      | Some ints when List.for_all Option.is_some ints ->
          Ok (List.map Option.get ints)
      | _ -> fail "bad_request" "%S must be an array of integers" name)

let parse_link_list name json =
  match Json.member name json with
  | None -> Ok []
  | Some v -> (
      let link item =
        match Option.map (List.map Json.to_int) (Json.to_list item) with
        | Some [ Some a; Some b ] -> Some (a, b)
        | _ -> None
      in
      match Option.map (List.map link) (Json.to_list v) with
      | Some links when List.for_all Option.is_some links ->
          Ok (List.map Option.get links)
      | _ -> fail "bad_request" "%S must be an array of [a,b] pairs" name)

let parse_request line =
  let ( let* ) r f =
    match r with Ok v -> f v | Error e -> Error (None, e)
  in
  let* json =
    match Json.parse line with
    | Ok json -> Ok json
    | Error msg -> fail "parse" "request is not valid JSON: %s" msg
  in
  let id = Option.bind (Json.member "id" json) Json.to_int in
  let with_id r = Result.map_error (fun e -> (id, e)) r in
  let ( let* ) r f = Result.bind (with_id r) f in
  let* () =
    match Json.member "rpc" json with
    | Some (Json.Str v) when v = version -> Ok ()
    | Some (Json.Str v) ->
        fail "version" "unsupported protocol %S (this server speaks %s)" v
          version
    | _ -> fail "version" "missing \"rpc\" field (expected %S)" version
  in
  let* id =
    match id with
    | Some id when id >= 0 -> Ok id
    | Some _ -> fail "bad_request" "\"id\" must be a non-negative integer"
    | None -> fail "bad_request" "missing \"id\" field"
  in
  let with_id r = Result.map_error (fun e -> (Some id, e)) r in
  let ( let* ) r f = Result.bind (with_id r) f in
  let* op =
    match Option.bind (Json.member "op" json) Json.to_str with
    | Some op -> Ok op
    | None -> fail "bad_request" "missing \"op\" field"
  in
  let* traced =
    match Json.member "trace" json with
    | None -> Ok false
    | Some (Json.Bool b) -> Ok b
    | Some _ -> fail "bad_request" "\"trace\" must be a boolean"
  in
  let request =
    match op with
    | "schedule" ->
        let* graph =
          match (Json.member "workload" json, Json.member "graph" json) with
          | Some (Json.Str w), None -> Ok (Workload w)
          | None, Some (Json.Str text) -> Ok (Inline text)
          | Some _, Some _ ->
              fail "bad_request"
                "give either \"workload\" or \"graph\", not both"
          | _ ->
              fail "bad_request"
                "a schedule request needs a \"workload\" name or an inline \
                 \"graph\""
        in
        let* arch =
          match Option.bind (Json.member "arch" json) Json.to_str with
          | Some a -> Ok a
          | None -> fail "bad_request" "missing \"arch\" field"
        in
        let* knobs = parse_knobs json in
        Ok (Schedule { graph; arch; knobs })
    | "replan" ->
        let* session =
          match Option.bind (Json.member "session" json) Json.to_str with
          | Some s -> Ok s
          | None -> fail "bad_request" "missing \"session\" field"
        in
        let* fail_pes = parse_pe_list "fail_pes" json in
        let* fail_links = parse_link_list "fail_links" json in
        let deadline_ms = optional_knob "deadline_ms" json in
        let* { deadline_ms; _ } =
          validated { default_knobs with deadline_ms }
        in
        if fail_pes = [] && fail_links = [] then
          with_id
            (fail "bad_request"
               "a replan needs at least one \"fail_pes\" or \"fail_links\" \
                entry")
        else Ok (Replan { session; fail_pes; fail_links; deadline_ms })
    | "stats" -> Ok Stats
    | "metrics" -> Ok Metrics
    | "health" -> Ok Health
    | "shutdown" -> Ok Shutdown
    | op ->
        with_id
          (fail "bad_request"
             "unknown op %S (expected schedule, replan, stats, metrics, \
              health or shutdown)"
             op)
  in
  Result.map (fun request -> (id, request, traced)) request

(* ------------------------------------------------------------------ *)
(* Serialisation                                                        *)
(* ------------------------------------------------------------------ *)

let request_to_json ?(trace = false) ~id request =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "{\"rpc\":\"%s\",\"id\":%d" version id);
  (match request with
  | Schedule { graph; arch; knobs } ->
      Buffer.add_string buf ",\"op\":\"schedule\"";
      (match graph with
      | Workload w ->
          Buffer.add_string buf
            (Printf.sprintf ",\"workload\":\"%s\"" (json_escape w))
      | Inline text ->
          Buffer.add_string buf
            (Printf.sprintf ",\"graph\":\"%s\"" (json_escape text)));
      Buffer.add_string buf
        (Printf.sprintf ",\"arch\":\"%s\"" (json_escape arch));
      add_knobs buf knobs
  | Replan { session; fail_pes; fail_links; deadline_ms } ->
      Buffer.add_string buf
        (Printf.sprintf ",\"op\":\"replan\",\"session\":\"%s\""
           (json_escape session));
      if fail_pes <> [] then
        Buffer.add_string buf
          (Printf.sprintf ",\"fail_pes\":[%s]"
             (String.concat "," (List.map string_of_int fail_pes)));
      if fail_links <> [] then
        Buffer.add_string buf
          (Printf.sprintf ",\"fail_links\":[%s]"
             (String.concat ","
                (List.map
                   (fun (a, b) -> Printf.sprintf "[%d,%d]" a b)
                   fail_links)));
      add_knobs buf { default_knobs with deadline_ms }
  | Stats -> Buffer.add_string buf ",\"op\":\"stats\""
  | Metrics -> Buffer.add_string buf ",\"op\":\"metrics\""
  | Health -> Buffer.add_string buf ",\"op\":\"health\""
  | Shutdown -> Buffer.add_string buf ",\"op\":\"shutdown\"");
  if trace then Buffer.add_string buf ",\"trace\":true";
  Buffer.add_char buf '}';
  Buffer.contents buf

let reply_to_json = function
  | Scheduled { id; session; cached; length; passes; schedule_json } ->
      Printf.sprintf
        "{\"rpc\":\"%s\",\"id\":%d,\"ok\":true,\"op\":\"schedule\",\
         \"session\":\"%s\",\"cached\":%b,\"length\":%d,\"passes\":%d,\
         \"schedule\":%s}"
        version id (json_escape session) cached length passes schedule_json
  | Replanned
      {
        id;
        session;
        cached;
        strategy;
        migration_cost;
        moved;
        length;
        surviving;
        schedule_json;
      } ->
      Printf.sprintf
        "{\"rpc\":\"%s\",\"id\":%d,\"ok\":true,\"op\":\"replan\",\
         \"session\":\"%s\",\"cached\":%b,\"strategy\":\"%s\",\
         \"migration_cost\":%d,\"moved\":%d,\"length\":%d,\"surviving\":%d,\
         \"schedule\":%s}"
        version id (json_escape session) cached strategy migration_cost moved
        length surviving schedule_json
  | Stats_reply { id; stats } ->
      Printf.sprintf
        "{\"rpc\":\"%s\",\"id\":%d,\"ok\":true,\"op\":\"stats\",\"stats\":\
         {\"hits\":%d,\"misses\":%d,\"evictions\":%d,\"entries\":%d,\
         \"capacity\":%d,\"requests\":%d}}"
        version id stats.hits stats.misses stats.evictions stats.entries
        stats.capacity stats.requests
  | Metrics_reply { id; body } ->
      Printf.sprintf
        "{\"rpc\":\"%s\",\"id\":%d,\"ok\":true,\"op\":\"metrics\",\
         \"content_type\":\"%s\",\"body\":\"%s\"}"
        version id
        (json_escape exposition_content_type)
        (json_escape body)
  | Health_reply { id; health = h } ->
      Printf.sprintf
        "{\"rpc\":\"%s\",\"id\":%d,\"ok\":true,\"op\":\"health\",\"health\":\
         {\"build\":\"%s\",\"uptime_ns\":%d,\"requests\":%d,\
         \"hit_rate\":%.4f,\"cache_entries\":%d,\"cache_capacity\":%d,\
         \"queue_depth\":%d,\"active_clients\":%d,\"last_replan\":\"%s\",\
         \"rss_bytes\":%d,\"peak_rss_bytes\":%d,\"heap_words\":%d,\
         \"gc_minor_collections\":%d,\"gc_major_collections\":%d}}"
        version id (json_escape h.build) h.uptime_ns h.rpc_requests h.hit_rate
        h.cache_entries h.cache_capacity h.queue_depth h.active_clients
        (json_escape h.last_replan)
        h.rss_bytes h.peak_rss_bytes h.heap_words h.gc_minor_collections
        h.gc_major_collections
  | Shutdown_ack { id } ->
      Printf.sprintf
        "{\"rpc\":\"%s\",\"id\":%d,\"ok\":true,\"op\":\"shutdown\"}" version
        id
  | Error_reply { id; err } ->
      (* the two hint fields are additive: absent unless set, so every
         pre-existing error reply keeps its exact bytes *)
      let hints =
        (match err.retry_after_ms with
        | Some n -> Printf.sprintf ",\"retry_after_ms\":%d" n
        | None -> "")
        ^
        match err.best_length with
        | Some n -> Printf.sprintf ",\"best_length\":%d" n
        | None -> ""
      in
      Printf.sprintf
        "{\"rpc\":\"%s\",\"id\":%s,\"ok\":false,\"error\":{\"code\":\"%s\",\
         \"message\":\"%s\"%s}}"
        version
        (match id with Some id -> string_of_int id | None -> "null")
        (json_escape err.code) (json_escape err.message) hints

(* The trace breakdown is additive: it is spliced onto the already
   serialised reply, so a traced reply is byte-identical to the
   untraced one modulo the trailing "trace" field (pinned by
   test/test_service.ml). *)
let with_trace line spans =
  let buf = Buffer.create (String.length line + 64) in
  Buffer.add_string buf (String.sub line 0 (String.length line - 1));
  Buffer.add_string buf ",\"trace\":[";
  List.iteri
    (fun i (name, ns) ->
      if i > 0 then Buffer.add_char buf ',';
      Printf.bprintf buf "{\"span\":\"%s\",\"ns\":%d}" (json_escape name) ns)
    spans;
  Buffer.add_string buf "]}";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Reply parsing (client side)                                          *)
(* ------------------------------------------------------------------ *)

let parse_reply line =
  let ( let* ) = Result.bind in
  let* json =
    match Obs.Json.parse line with
    | Ok json -> Ok json
    | Error msg -> Error (Printf.sprintf "reply is not valid JSON: %s" msg)
  in
  let str name = Option.bind (Json.member name json) Json.to_str in
  let int name = Option.bind (Json.member name json) Json.to_int in
  let require what = function
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "reply is missing %S" what)
  in
  let* () =
    match str "rpc" with
    | Some v when v = version -> Ok ()
    | Some v -> Error (Printf.sprintf "unsupported protocol %S in reply" v)
    | None -> Error "reply is missing \"rpc\""
  in
  match Json.member "ok" json with
  | Some (Json.Bool false) ->
      let id = int "id" in
      let* e = require "error" (Json.member "error" json) in
      let code =
        Option.value ~default:"internal"
          (Option.bind (Json.member "code" e) Json.to_str)
      in
      let message =
        Option.value ~default:""
          (Option.bind (Json.member "message" e) Json.to_str)
      in
      let retry_after_ms =
        Option.bind (Json.member "retry_after_ms" e) Json.to_int
      in
      let best_length =
        Option.bind (Json.member "best_length" e) Json.to_int
      in
      Ok (Error_reply { id; err = { code; message; retry_after_ms; best_length } })
  | Some (Json.Bool true) -> (
      let* id = require "id" (int "id") in
      let* op = require "op" (str "op") in
      (* the schedule object is only checked for presence: a client
         that needs its exact one-shot bytes slices them out of the
         raw reply line *)
      match op with
      | "schedule" ->
          let* session = require "session" (str "session") in
          let cached =
            match Json.member "cached" json with
            | Some (Json.Bool b) -> b
            | _ -> false
          in
          let* length = require "length" (int "length") in
          let* passes = require "passes" (int "passes") in
          let* _ = require "schedule" (Json.member "schedule" json) in
          Ok
            (Scheduled
               { id; session; cached; length; passes; schedule_json = "" })
      | "replan" ->
          let* session = require "session" (str "session") in
          let cached =
            match Json.member "cached" json with
            | Some (Json.Bool b) -> b
            | _ -> false
          in
          let* strategy = require "strategy" (str "strategy") in
          let* migration_cost = require "migration_cost" (int "migration_cost") in
          let* moved = require "moved" (int "moved") in
          let* length = require "length" (int "length") in
          let* surviving = require "surviving" (int "surviving") in
          let* _ = require "schedule" (Json.member "schedule" json) in
          Ok
            (Replanned
               {
                 id;
                 session;
                 cached;
                 strategy;
                 migration_cost;
                 moved;
                 length;
                 surviving;
                 schedule_json = "";
               })
      | "stats" ->
          let* s = require "stats" (Json.member "stats" json) in
          let sint name =
            Option.value ~default:0
              (Option.bind (Json.member name s) Json.to_int)
          in
          Ok
            (Stats_reply
               {
                 id;
                 stats =
                   {
                     hits = sint "hits";
                     misses = sint "misses";
                     evictions = sint "evictions";
                     entries = sint "entries";
                     capacity = sint "capacity";
                     requests = sint "requests";
                   };
               })
      | "metrics" ->
          let* body = require "body" (str "body") in
          Ok (Metrics_reply { id; body })
      | "health" ->
          let* h = require "health" (Json.member "health" json) in
          let hint name =
            Option.value ~default:0
              (Option.bind (Json.member name h) Json.to_int)
          in
          let hstr name =
            Option.value ~default:""
              (Option.bind (Json.member name h) Json.to_str)
          in
          Ok
            (Health_reply
               {
                 id;
                 health =
                   {
                     build = hstr "build";
                     uptime_ns = hint "uptime_ns";
                     rpc_requests = hint "requests";
                     hit_rate =
                       Option.value ~default:0.
                         (Option.bind (Json.member "hit_rate" h) Json.to_num);
                     cache_entries = hint "cache_entries";
                     cache_capacity = hint "cache_capacity";
                     queue_depth = hint "queue_depth";
                     active_clients = hint "active_clients";
                     last_replan = hstr "last_replan";
                     rss_bytes = hint "rss_bytes";
                     peak_rss_bytes = hint "peak_rss_bytes";
                     heap_words = hint "heap_words";
                     gc_minor_collections = hint "gc_minor_collections";
                     gc_major_collections = hint "gc_major_collections";
                   };
               })
      | "shutdown" -> Ok (Shutdown_ack { id })
      | op -> Error (Printf.sprintf "unknown op %S in reply" op))
  | _ -> Error "reply is missing \"ok\""
