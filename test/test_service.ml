(* Tests for the scheduling service: cache hits byte-identical to cold
   misses (and to the one-shot export), content-addressed key collision
   resistance, replan parity with Cyclo.Degrade, LRU bounds, batch and
   socket determinism, and total protocol parsing. *)

module P = Service.Protocol
module Engine = Service.Engine
module Lru = Service.Lru
module Statefile = Service.Statefile
module Cachekey = Cyclo.Cachekey

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let fig7 () = Option.get (Workloads.Suite.find "fig7")

let sched_line ?(id = 1) ?(knobs = P.default_knobs) workload arch =
  P.request_to_json ~id
    (P.Schedule { graph = P.Workload workload; arch; knobs })

let replace ~sub ~by s =
  let ls = String.length sub and n = String.length s in
  let buf = Buffer.create n in
  let i = ref 0 in
  while !i <= n - ls do
    if String.sub s !i ls = sub then begin
      Buffer.add_string buf by;
      i := !i + ls
    end
    else begin
      Buffer.add_char buf s.[!i];
      incr i
    end
  done;
  Buffer.add_substring buf s !i (n - !i);
  Buffer.contents buf

(* The raw bytes of the embedded schedule object: everything after
   "schedule": up to the reply's closing brace. *)
let schedule_field line =
  let marker = "\"schedule\":" in
  let lm = String.length marker in
  let rec find i =
    if i + lm > String.length line then
      Alcotest.fail "reply has no schedule field"
    else if String.sub line i lm = marker then i + lm
    else find (i + 1)
  in
  let start = find 0 in
  String.sub line start (String.length line - start - 1)

(* {2 Golden byte-identity} *)

let test_hit_byte_identical_to_cold_miss () =
  let e = Engine.create () in
  let line = sched_line "fig7" "mesh:2x4" in
  let miss, _ = Engine.handle_line e line in
  let hit, _ = Engine.handle_line e line in
  check_bool "miss is uncached" true
    (replace ~sub:"\"cached\":false" ~by:"" miss <> miss);
  check_str "hit differs only in the cached flag"
    (replace ~sub:"\"cached\":false" ~by:"\"cached\":true" miss)
    hit;
  check "one miss" 1 (Engine.stats e).P.misses;
  check "one hit" 1 (Engine.stats e).P.hits

let test_reply_matches_one_shot_export () =
  let e = Engine.create () in
  let reply, _ = Engine.handle_line e (sched_line "fig7" "mesh:2x4") in
  let topo = Result.get_ok (Topology.of_spec "mesh:2x4") in
  let direct =
    Cyclo.Export.to_json
      (Cyclo.Compaction.run_on ~mode:Cyclo.Remap.With_relaxation (fig7 ())
         topo)
        .Cyclo.Compaction.best
  in
  check_str "embedded schedule is the one-shot export" direct
    (schedule_field reply)

(* {2 Cache keys} *)

type cfg = {
  mode : Cyclo.Remap.mode;
  passes : int option;
  slowdown : int;
  transport : Cachekey.transport;
  arch : string;
  speeds : [ `No | `Uniform2 | `Alternating ];
}

(* every arch here has 8 processors, so the speeds variants apply to all *)
let cfg_gen =
  QCheck.Gen.(
    let* mode =
      oneofl [ Cyclo.Remap.With_relaxation; Cyclo.Remap.Without_relaxation ]
    in
    let* passes = oneofl [ None; Some 8; Some 16 ] in
    let* slowdown = oneofl [ 1; 2; 3 ] in
    let* transport = oneofl [ Cachekey.Store_and_forward; Cachekey.Wormhole ] in
    let* arch =
      oneofl [ "mesh:2x4"; "ring:8"; "complete:8"; "hypercube:3"; "linear:8" ]
    in
    let* speeds = oneofl [ `No; `Uniform2; `Alternating ] in
    return { mode; passes; slowdown; transport; arch; speeds })

let knobs_of_cfg c =
  let n = Topology.n_processors (Result.get_ok (Topology.of_spec c.arch)) in
  {
    P.default_knobs with
    P.mode = c.mode;
    passes = c.passes;
    slowdown = c.slowdown;
    transport = c.transport;
    speeds =
      (match c.speeds with
      | `No -> None
      | `Uniform2 -> Some (Array.make n 2)
      | `Alternating -> Some (Array.init n (fun i -> 1 + (i mod 2))));
  }

let digest_of_cfg c =
  let k = knobs_of_cfg c in
  Cachekey.digest ?speeds:k.P.speeds ?passes:k.P.passes ~slowdown:k.P.slowdown
    ~mode:k.P.mode ~transport:k.P.transport (fig7 ())
    (Result.get_ok (Topology.of_spec c.arch))

let prop_digest_injective_across_knobs =
  QCheck.Test.make ~count:300
    ~name:"equal digests exactly for equal knob configurations"
    (QCheck.make (QCheck.Gen.pair cfg_gen cfg_gen))
    (fun (a, b) -> digest_of_cfg a = digest_of_cfg b = (a = b))

let test_digest_covers_graph_identity () =
  let topo = Result.get_ok (Topology.of_spec "complete:8") in
  let digest g =
    Cachekey.digest ~mode:Cyclo.Remap.With_relaxation
      ~transport:Cachekey.Store_and_forward g topo
  in
  let elliptic = Option.get (Workloads.Suite.find "elliptic") in
  check_bool "different graphs, different keys" true
    (digest (fig7 ()) <> digest elliptic);
  check_bool "slowed-down graph changes the key" true
    (digest (fig7 ()) <> digest (Dataflow.Transform.slowdown (fig7 ()) 2))

let test_replan_digest_chains () =
  let d1 = Cachekey.replan_digest ~parent:"p" ~failed_pes:[ 3 ] ~failed_links:[] in
  let d1' =
    Cachekey.replan_digest ~parent:"p" ~failed_pes:[ 3; 3 ] ~failed_links:[]
  in
  check_str "duplicate faults collapse" d1 d1';
  let d2 =
    Cachekey.replan_digest ~parent:d1 ~failed_pes:[ 4 ] ~failed_links:[]
  in
  check_bool "chained replan has its own key" true (d1 <> d2);
  check_str "link order is normalised"
    (Cachekey.replan_digest ~parent:"p" ~failed_pes:[]
       ~failed_links:[ (1, 2) ])
    (Cachekey.replan_digest ~parent:"p" ~failed_pes:[]
       ~failed_links:[ (2, 1) ])

(* Every knob away from its default: the second pinned key. *)
let every_knob_set =
  {
    P.default_knobs with
    P.mode = Cyclo.Remap.Without_relaxation;
    transport = Cachekey.Wormhole;
    passes = Some 12;
    speeds = Some [| 1; 1; 1; 1; 2; 2; 2; 2 |];
    slowdown = 2;
  }

(* Session ids are public — the docs quote the first, clients store
   them — so these keys must never move. *)
let test_golden_keys () =
  let topo = Result.get_ok (Topology.of_spec "mesh:2x4") in
  let default_key = "b6864f184a1075782f4026d4bdc6e3cb" in
  check_str "default knobs" default_key
    (Cachekey.key P.default_knobs (fig7 ()) topo);
  check_str "digest of the defaults" default_key
    (Cachekey.digest ~mode:Cyclo.Remap.With_relaxation
       ~transport:Cachekey.Store_and_forward (fig7 ()) topo);
  check_str "a deadline stays out of the key" default_key
    (Cachekey.key
       { P.default_knobs with P.deadline_ms = Some 5 }
       (fig7 ()) topo);
  check_str "every knob set" "1c16b439236cc2f23f9574af298da1e1"
    (Cachekey.key every_knob_set (fig7 ()) topo)

(* {2 Replan parity with Cyclo.Degrade} *)

let test_replan_matches_degrade () =
  let topo = Result.get_ok (Topology.of_spec "mesh:2x4") in
  let best =
    (Cyclo.Compaction.run_on (fig7 ()) topo).Cyclo.Compaction.best
  in
  let plan =
    Result.get_ok
      (Cyclo.Degrade.replan best topo ~failed_pes:[ 2 ] ~failed_links:[])
  in
  let e = Engine.create () in
  let first, _ = Engine.handle_line e (sched_line "fig7" "mesh:2x4") in
  let session =
    match P.parse_reply first with
    | Ok (P.Scheduled { session; _ }) -> session
    | _ -> Alcotest.fail "expected a schedule reply"
  in
  (* wire ids are 1-based: pe 3 on the wire is pe 2 internally *)
  let reply, _ =
    Engine.handle_line e
      (P.request_to_json ~id:2
         (P.Replan
            { session; fail_pes = [ 3 ]; fail_links = []; deadline_ms = None }))
  in
  check_str "replan schedule equals Degrade.replan's"
    (Cyclo.Export.to_json plan.Cyclo.Degrade.schedule)
    (schedule_field reply);
  match P.parse_reply reply with
  | Ok (P.Replanned r) ->
      check "migration cost" plan.Cyclo.Degrade.migration_cost
        r.migration_cost;
      check "moved" (List.length plan.Cyclo.Degrade.moved) r.moved;
      check "surviving" (Array.length plan.Cyclo.Degrade.surviving)
        r.surviving;
      check_str "strategy"
        (match plan.Cyclo.Degrade.strategy with
        | Cyclo.Degrade.Patched -> "patched"
        | Cyclo.Degrade.Rebuilt -> "rebuilt")
        r.strategy;
      check_bool "first replan is a miss" false r.cached;
      let again, _ =
        Engine.handle_line e
          (P.request_to_json ~id:2
             (P.Replan
            { session; fail_pes = [ 3 ]; fail_links = []; deadline_ms = None }))
      in
      check_str "repeat replan is a byte-identical hit"
        (replace ~sub:"\"cached\":false" ~by:"\"cached\":true" reply)
        again
  | _ -> Alcotest.fail "expected a replan reply"

let test_replan_unknown_session () =
  let e = Engine.create () in
  let reply, _ =
    Engine.handle_line e
      (P.request_to_json ~id:9
         (P.Replan
            { session = "feedfacefeedfacefeedfacefeedface"; fail_pes = [ 1 ];
              fail_links = []; deadline_ms = None }))
  in
  match P.parse_reply reply with
  | Ok (P.Error_reply { id; err }) ->
      check "echoes id" 9 (Option.get id);
      check_str "code" "unknown_session" err.P.code
  | _ -> Alcotest.fail "expected an error reply"

(* {2 LRU} *)

let test_lru_eviction_order () =
  let l = Lru.create ~capacity:2 in
  Lru.add l "a" 1;
  Lru.add l "b" 2;
  ignore (Lru.find l "a");
  (* refreshes a, so b is the victim *)
  Lru.add l "c" 3;
  check "bound respected" 2 (Lru.length l);
  check "one eviction" 1 (Lru.evictions l);
  check_bool "b evicted" true (Lru.find l "b" = None);
  check_bool "a survived" true (Lru.find l "a" = Some 1);
  Alcotest.(check (list string)) "mru order" [ "a"; "c" ] (Lru.keys l);
  Lru.add l "a" 10;
  check "replace does not evict" 2 (Lru.length l);
  check_bool "replaced value" true (Lru.find l "a" = Some 10)

let test_engine_respects_cache_bound () =
  let e = Engine.create ~capacity:2 () in
  List.iter
    (fun arch -> ignore (Engine.handle_line e (sched_line "fig7" arch)))
    [ "ring:4"; "linear:4"; "complete:4" ];
  let s = Engine.stats e in
  check "entries bounded" 2 s.P.entries;
  check "eviction counted" 1 s.P.evictions;
  check "capacity reported" 2 s.P.capacity;
  (* the first arch was evicted: asking again is a miss, not a hit *)
  ignore (Engine.handle_line e (sched_line "fig7" "ring:4"));
  check "re-request misses" 4 (Engine.stats e).P.misses

(* {2 Batch determinism} *)

let batch_lines =
  [
    sched_line ~id:1 "fig7" "mesh:2x4";
    sched_line ~id:2 "fig7" "ring:8";
    sched_line ~id:3 "fig7" "mesh:2x4";
    "not json at all";
    sched_line ~id:4 "fig7" "mesh:2x4";
    P.request_to_json ~id:5 P.Stats;
  ]

let test_batch_matches_sequential () =
  let seq_engine = Engine.create () in
  let sequential = List.map (Engine.handle_line seq_engine) batch_lines in
  List.iter
    (fun domains ->
      let e = Engine.create () in
      let batched = Engine.handle_batch ~domains e batch_lines in
      List.iteri
        (fun i ((b, _), (s, _)) ->
          check_str (Printf.sprintf "reply %d (domains=%d)" i domains) s b)
        (List.combine batched sequential);
      check "same hits" (Engine.stats seq_engine).P.hits (Engine.stats e).P.hits;
      check "same misses" (Engine.stats seq_engine).P.misses
        (Engine.stats e).P.misses;
      Alcotest.(check (list string))
        "same cache keys"
        (Engine.cache_keys seq_engine) (Engine.cache_keys e))
    [ 1; 2; 4 ]

(* {2 Protocol totality (socket-level fuzz lives in CI)} *)

let test_malformed_lines_become_error_replies () =
  let e = Engine.create () in
  let expect code line =
    let reply, continue = Engine.handle_line e line in
    check_bool (Printf.sprintf "%S keeps serving" line) true
      (continue = `Continue);
    match P.parse_reply reply with
    | Ok (P.Error_reply { err; _ }) ->
        check_str (Printf.sprintf "code for %S" line) code err.P.code
    | _ -> Alcotest.fail (Printf.sprintf "%S: expected an error reply" line)
  in
  expect "parse" "";
  expect "parse" "garbage";
  expect "parse" "{\"rpc\":\"ccsched-rpc/1\",\"id\":1,\"op\":";
  expect "version" "{}";
  expect "version" "{\"rpc\":\"ccsched-rpc/9\",\"id\":1,\"op\":\"stats\"}";
  expect "bad_request" "{\"rpc\":\"ccsched-rpc/1\",\"op\":\"stats\"}";
  expect "bad_request" "{\"rpc\":\"ccsched-rpc/1\",\"id\":-3,\"op\":\"stats\"}";
  expect "bad_request" "{\"rpc\":\"ccsched-rpc/1\",\"id\":1,\"op\":\"frobnicate\"}";
  expect "bad_request" "{\"rpc\":\"ccsched-rpc/1\",\"id\":1,\"op\":\"schedule\"}";
  expect "bad_request"
    "{\"rpc\":\"ccsched-rpc/1\",\"id\":1,\"op\":\"schedule\",\"workload\":\"fig7\",\"arch\":\"blob:9\"}";
  expect "bad_request"
    "{\"rpc\":\"ccsched-rpc/1\",\"id\":1,\"op\":\"schedule\",\"workload\":\"nope\",\"arch\":\"ring:4\"}";
  expect "bad_graph"
    "{\"rpc\":\"ccsched-rpc/1\",\"id\":1,\"op\":\"schedule\",\"graph\":\"not a csdfg\",\"arch\":\"ring:4\"}";
  expect "bad_request"
    "{\"rpc\":\"ccsched-rpc/1\",\"id\":1,\"op\":\"replan\",\"session\":\"x\"}";
  expect "bad_request"
    "{\"rpc\":\"ccsched-rpc/1\",\"id\":1,\"op\":\"schedule\",\"workload\":\"fig7\",\"arch\":\"ring:4\",\"speeds\":[1,2]}";
  expect "bad_request"
    "{\"rpc\":\"ccsched-rpc/1\",\"id\":1,\"op\":\"stats\",\"trace\":1}"

(* One bad knob per request: the exact reply bytes, including each
   message, which the CLI prints too.  The last rows pin which of two
   bad knobs is reported. *)
let test_bad_knob_replies () =
  let e = Engine.create () in
  let reply id message =
    Printf.sprintf
      {|{"rpc":"ccsched-rpc/1","id":%d,"ok":false,"error":{"code":"bad_request","message":%s}}|}
      id message
  in
  List.iteri
    (fun i (fields, message) ->
      let id = i + 1 in
      let line =
        Printf.sprintf
          {|{"rpc":"ccsched-rpc/1","id":%d,"op":"schedule","workload":"fig7","arch":"mesh:2x4",%s}|}
          id fields
      in
      check_str fields (reply id message) (fst (Engine.handle_line e line)))
    [
      ({|"mode":"fast"|}, {|"\"mode\" must be \"relax\" or \"strict\""|});
      ({|"mode":1|}, {|"\"mode\" must be \"relax\" or \"strict\""|});
      ( {|"transport":"teleport"|},
        {|"\"transport\" must be \"store-and-forward\" or \"wormhole\""|} );
      ({|"passes":0|}, {|"\"passes\" must be an integer >= 1"|});
      ({|"passes":-3|}, {|"\"passes\" must be an integer >= 1"|});
      ({|"passes":1.5|}, {|"\"passes\" must be an integer >= 1"|});
      ({|"slowdown":0|}, {|"\"slowdown\" must be an integer >= 1"|});
      ({|"slowdown":"2"|}, {|"\"slowdown\" must be an integer >= 1"|});
      ({|"slowdown":null|}, {|"\"slowdown\" must be an integer >= 1"|});
      ({|"speeds":[]|}, {|"\"speeds\" entries must be positive"|});
      ({|"speeds":[0]|}, {|"\"speeds\" entries must be positive"|});
      ( {|"speeds":[1,1,1,1,1,1,1,0]|},
        {|"\"speeds\" entries must be positive"|} );
      ({|"speeds":"1,2"|}, {|"\"speeds\" must be an array of integers"|});
      ({|"speeds":[1,"a"]|}, {|"\"speeds\" must be an array of integers"|});
      ( {|"speeds":[1,2]|},
        {|"\"speeds\" needs 8 entries for mesh-2x4, got 2"|} );
      ({|"deadline_ms":0|}, {|"\"deadline_ms\" must be an integer >= 1"|});
      ({|"passes":0,"speeds":"x"|}, {|"\"passes\" must be an integer >= 1"|});
      ( {|"slowdown":0,"deadline_ms":"x"|},
        {|"\"slowdown\" must be an integer >= 1"|} );
    ];
  check_str "replan deadline"
    (reply 99 {|"\"deadline_ms\" must be an integer >= 1"|})
    (fst
       (Engine.handle_line e
          {|{"rpc":"ccsched-rpc/1","id":99,"op":"replan","session":"x","fail_pes":[1],"deadline_ms":0}|}))

(* The one knob codec round-trips through a request line and through a
   journal record, which drops the deadline. *)
let prop_knob_codec_round_trips =
  QCheck.Test.make ~count:200 ~name:"knob codec round-trips"
    (QCheck.make
       QCheck.Gen.(pair cfg_gen (opt (int_range 1 100_000))))
    (fun (c, deadline_ms) ->
      let knobs = { (knobs_of_cfg c) with P.deadline_ms } in
      let line =
        P.request_to_json ~id:1
          (P.Schedule { graph = P.Workload "fig7"; arch = c.arch; knobs })
      in
      let framed =
        Statefile.encode_record
          (Statefile.Sched
             {
               Statefile.s_key = "k";
               s_graph = P.Workload "fig7";
               s_arch = c.arch;
               s_knobs = knobs;
               s_length = 1;
               s_passes = 1;
               s_schedule_json = "{}";
             })
      in
      (match P.parse_request line with
      | Ok (_, P.Schedule { knobs = k; _ }, _) -> k = knobs
      | _ -> false)
      &&
      match
        Statefile.decode_payload
          (String.sub framed 8 (String.length framed - 8))
      with
      | Ok (Statefile.Sched s) ->
          s.Statefile.s_knobs = { knobs with P.deadline_ms = None }
      | _ -> false)

let prop_parse_request_total =
  QCheck.Test.make ~count:500 ~name:"parse_request never raises"
    QCheck.(string_of_size (QCheck.Gen.int_range 0 80))
    (fun s ->
      match P.parse_request s with Ok _ | Error _ -> true)

(* An inline graph with a zero-delay cycle on its last two nodes, the
   cycle an enumeration reaches last: the legality check is one linear
   pass, so the event loop answers at once, with the named cycle. *)
let test_inline_late_cycle_is_bad_graph () =
  let text =
    Dataflow.Io.to_string (Workloads.Random_gen.layered ~nodes:6000 ~seed:1 ())
    ^ "edge n5998 n5999 0 1\nedge n5999 n5998 0 1\n"
  in
  let e = Engine.create () in
  let line =
    P.request_to_json ~id:1
      (P.Schedule
         { graph = P.Inline text; arch = "mesh:2x4"; knobs = P.default_knobs })
  in
  let t0 = Unix.gettimeofday () in
  let reply, _ = Engine.handle_line e line in
  let elapsed = Unix.gettimeofday () -. t0 in
  (match P.parse_reply reply with
  | Ok (P.Error_reply { err; _ }) ->
      check_str "code" "bad_graph" err.P.code;
      check_str "message"
        "illegal CSDFG: cycle without positive delay: n5998 -> n5999"
        err.P.message
  | _ -> Alcotest.fail "expected an error reply");
  check_bool (Printf.sprintf "within 1 s (took %.3f s)" elapsed) true
    (elapsed < 1.0)

let test_inline_graph_round_trips () =
  (* an inline graph goes through json_escape (newlines!) and back *)
  let text = Dataflow.Io.to_string (fig7 ()) in
  let line =
    P.request_to_json ~id:7
      (P.Schedule
         { graph = P.Inline text; arch = "mesh:2x4"; knobs = P.default_knobs })
  in
  let e = Engine.create () in
  let inline_reply, _ = Engine.handle_line e line in
  let named_reply, _ = Engine.handle_line e (sched_line ~id:7 "fig7" "mesh:2x4") in
  check_str "inline fig7 equals the named workload (a cache hit)"
    (replace ~sub:"\"cached\":false" ~by:"\"cached\":true" inline_reply)
    named_reply

(* {2 Telemetry: metrics, health, trace} *)

let test_engine_metrics_and_health () =
  Obs.Counters.enable ();
  let e = Engine.create () in
  ignore (Engine.handle_line e (sched_line "fig7" "ring:8"));
  ignore (Engine.handle_line e (sched_line "fig7" "ring:8"));
  let reply, _ = Engine.handle_line e (P.request_to_json ~id:3 P.Metrics) in
  (match P.parse_reply reply with
  | Ok (P.Metrics_reply { id; body }) -> (
      check "echoes id" 3 id;
      match Obs.Exposition.parse body with
      | Error m -> Alcotest.fail ("scrape rejected by strict parser: " ^ m)
      | Ok fams ->
          List.iter
            (fun raw ->
              let n = Obs.Exposition.metric_name raw in
              check_bool (n ^ " present") true
                (Obs.Exposition.find fams n <> None))
            [
              "service.requests"; "service.cache_hits"; "service.cache_misses";
              "service.cache_evictions";
            ];
          Alcotest.(check (option (float 0.)))
            "hit counter visible" (Some 1.)
            (Obs.Exposition.value fams
               (Obs.Exposition.metric_name "service.cache_hits")))
  | _ -> Alcotest.fail "expected a metrics reply");
  let hreply, _ = Engine.handle_line e (P.request_to_json ~id:4 P.Health) in
  (match P.parse_reply hreply with
  | Ok (P.Health_reply { id; health }) ->
      check "echoes id" 4 id;
      check_str "build" "ccsched/1.0.0" health.P.build;
      check "requests counted" 4 health.P.rpc_requests;
      Alcotest.(check (float 1e-9)) "hit rate" 0.5 health.P.hit_rate;
      check "one cached entry" 1 health.P.cache_entries;
      check "capacity" 256 health.P.cache_capacity;
      check_str "no replan yet" "none" health.P.last_replan
  | _ -> Alcotest.fail "expected a health reply");
  Obs.Counters.disable ()

let contains line sub =
  let ls = String.length sub and n = String.length line in
  let rec go i = i <= n - ls && (String.sub line i ls = sub || go (i + 1)) in
  go 0

let strip_trace line =
  let marker = ",\"trace\":[" in
  let lm = String.length marker in
  let rec find i =
    if i + lm > String.length line then
      Alcotest.fail "reply has no trace field"
    else if String.sub line i lm = marker then i
    else find (i + 1)
  in
  String.sub line 0 (find 0) ^ "}"

let traced_sched_line ~id workload arch =
  P.request_to_json ~trace:true ~id
    (P.Schedule
       { graph = P.Workload workload; arch; knobs = P.default_knobs })

let test_traced_reply_byte_identity () =
  let e = Engine.create () in
  ignore (Engine.handle_line e (sched_line ~id:5 "fig7" "mesh:2x4"));
  let untraced, _ = Engine.handle_line e (sched_line ~id:5 "fig7" "mesh:2x4") in
  let traced, _ =
    Engine.handle_line e (traced_sched_line ~id:5 "fig7" "mesh:2x4")
  in
  check_str "traced hit strips back to the untraced bytes" untraced
    (strip_trace traced);
  List.iter
    (fun span ->
      check_bool (span ^ " span present") true
        (contains traced (Printf.sprintf "{\"span\":\"%s\",\"ns\":" span)))
    [ "parse"; "resolve"; "cache_lookup"; "export" ];
  (* a traced miss carries the compaction span *)
  let traced_miss, _ =
    Engine.handle_line e (traced_sched_line ~id:6 "fig7" "ring:8")
  in
  check_bool "compaction span on a miss" true
    (contains traced_miss "{\"span\":\"compaction\",\"ns\":");
  (* stats requests trace too, and the batch path matches sequential *)
  let batch =
    Engine.handle_batch ~domains:2 (Engine.create ())
      [
        sched_line ~id:5 "fig7" "mesh:2x4";
        sched_line ~id:5 "fig7" "mesh:2x4";
        traced_sched_line ~id:5 "fig7" "mesh:2x4";
      ]
  in
  (match batch with
  | [ (_, _); (hit, _); (traced_hit, _) ] ->
      check_str "batch traced hit strips to the batch untraced hit" hit
        (strip_trace traced_hit)
  | _ -> Alcotest.fail "expected three batch replies")

(* {2 The socket itself} *)

let with_server ?(config = fun c -> c) f =
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ccsched-test-%d.sock" (Unix.getpid ()))
  in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let ready = Atomic.make false in
  let srv =
    Domain.spawn (fun () ->
        Service.Server.run
          ~on_ready:(fun () -> Atomic.set ready true)
          (config
             {
               (Service.Server.default_config ~socket_path:path) with
               capacity = 8;
               domains = Some 1;
               max_clients = 4;
             }))
  in
  let rec wait n =
    if not (Atomic.get ready) then
      if n = 0 then Alcotest.fail "server never became ready"
      else begin
        Unix.sleepf 0.01;
        wait (n - 1)
      end
  in
  wait 1000;
  let join () =
    match Domain.join srv with Ok () -> () | Error msg -> Alcotest.fail msg
  in
  match f path with
  | v ->
      join ();
      v
  | exception e ->
      (* The test raised before sending its own shutdown, so the join
         would wait forever: send one (the server may already be gone),
         then join and re-raise the test's failure. *)
      let bt = Printexc.get_raw_backtrace () in
      (match Service.Client.connect path with
      | Ok c ->
          ignore
            (Service.Client.rpc_line c (P.request_to_json ~id:0 P.Shutdown));
          Service.Client.close c
      | Error _ -> ());
      (try join () with _ -> ());
      Printexc.raise_with_backtrace e bt

let connect_exn path =
  match Service.Client.connect path with
  | Ok c -> c
  | Error e -> Alcotest.fail (Service.Client.error_to_string e)

let rpc_exn c line =
  match Service.Client.rpc_line c line with
  | Ok reply -> reply
  | Error e -> Alcotest.fail (Service.Client.error_to_string e)

let test_with_server_failure_returns () =
  let t0 = Unix.gettimeofday () in
  (match with_server (fun _ -> failwith "boom") with
  | () -> Alcotest.fail "the test's failure was swallowed"
  | exception Failure msg -> check_str "the test's own failure" "boom" msg);
  check_bool "returned within seconds" true (Unix.gettimeofday () -. t0 < 10.)

let test_socket_round_trip () =
  with_server @@ fun path ->
  let c1 = connect_exn path in
  let c2 = connect_exn path in
  let line = sched_line "fig7" "ring:8" in
  let r1 = rpc_exn c1 line in
  let r2 = rpc_exn c2 line in
  check_str "two clients, same bytes modulo the cached flag"
    (replace ~sub:"\"cached\":false" ~by:"\"cached\":true" r1)
    (replace ~sub:"\"cached\":false" ~by:"\"cached\":true" r2);
  (match P.parse_reply (rpc_exn c2 (P.request_to_json ~id:2 P.Stats)) with
  | Ok (P.Stats_reply { stats; _ }) ->
      check "one schedule miss over the wire" 1 stats.P.misses;
      check "requests counted" 3 stats.P.requests
  | _ -> Alcotest.fail "expected stats");
  Service.Client.close c1;
  match P.parse_reply (rpc_exn c2 (P.request_to_json ~id:3 P.Shutdown)) with
  | Ok (P.Shutdown_ack _) -> Service.Client.close c2
  | _ -> Alcotest.fail "expected a shutdown ack"

(* Two clients against one daemon, one of them tracing: the traced
   reply must be byte-identical to the untraced one up to the trailing
   trace field, and health/metrics answer over the wire. *)
let test_socket_trace_identity () =
  with_server @@ fun path ->
  let c1 = connect_exn path in
  let c2 = connect_exn path in
  let line = sched_line ~id:4 "fig7" "mesh:2x4" in
  ignore (rpc_exn c1 line);
  (* cold miss *)
  let untraced = rpc_exn c1 line in
  let traced = rpc_exn c2 (traced_sched_line ~id:4 "fig7" "mesh:2x4") in
  check_str "other client's traced hit strips to the untraced bytes"
    untraced (strip_trace traced);
  check_bool "span breakdown present" true
    (contains traced "{\"span\":\"parse\",\"ns\":");
  (match P.parse_reply (rpc_exn c2 (P.request_to_json ~id:5 P.Health)) with
  | Ok (P.Health_reply { health; _ }) ->
      check "requests so far" 4 health.P.rpc_requests
  | _ -> Alcotest.fail "expected a health reply");
  (match P.parse_reply (rpc_exn c1 (P.request_to_json ~id:6 P.Metrics)) with
  | Ok (P.Metrics_reply { body; _ }) ->
      (* registries may be disabled in the test binary: the scrape must
         still be well-formed, just possibly empty *)
      check_bool "scrape is valid exposition" true
        (Result.is_ok (Obs.Exposition.parse body))
  | _ -> Alcotest.fail "expected a metrics reply");
  Service.Client.close c1;
  match P.parse_reply (rpc_exn c2 (P.request_to_json ~id:7 P.Shutdown)) with
  | Ok (P.Shutdown_ack _) -> Service.Client.close c2
  | _ -> Alcotest.fail "expected a shutdown ack"

(* {2 Deadlines and cancellation} *)

let test_time_budget_cancels_compaction () =
  let topo = Result.get_ok (Topology.of_spec "mesh:2x4") in
  let comm = Cyclo.Comm.of_topology topo in
  let r = Cyclo.Compaction.run ~time_budget:0. (fig7 ()) comm in
  check_bool "zero budget times out" true r.Cyclo.Compaction.timed_out;
  (* best-so-far is still a complete, legal schedule (startup at worst) *)
  check_bool "best is a schedule" true
    (Cyclo.Schedule.length r.Cyclo.Compaction.best > 0);
  let full = Cyclo.Compaction.run (fig7 ()) comm in
  check_bool "no budget, no timeout" false full.Cyclo.Compaction.timed_out

let test_time_budget_cancels_degrade () =
  let topo = Result.get_ok (Topology.of_spec "mesh:2x4") in
  let best =
    (Cyclo.Compaction.run_on (fig7 ()) topo).Cyclo.Compaction.best
  in
  match
    Cyclo.Degrade.replan ~time_budget:0. best topo ~failed_pes:[ 2 ]
      ~failed_links:[]
  with
  | Error msg ->
      check_str "typed sentinel" Cyclo.Degrade.deadline_error msg
  | Ok _ -> Alcotest.fail "zero budget should cancel the replan"

let test_protocol_deadline_and_hints () =
  let line =
    P.request_to_json ~id:3
      (P.Schedule
         {
           graph = P.Workload "fig7";
           arch = "ring:4";
           knobs = { P.default_knobs with P.deadline_ms = Some 250 };
         })
  in
  check_bool "deadline on the wire" true (contains line "\"deadline_ms\":250");
  (match P.parse_request line with
  | Ok (3, P.Schedule { knobs; _ }, false) ->
      check "deadline parses back" 250 (Option.get knobs.P.deadline_ms)
  | _ -> Alcotest.fail "request with deadline should parse");
  (* the error hints are additive: present exactly when set, and they
     round-trip through the reply parser *)
  let hinted =
    P.reply_to_json
      (P.Error_reply
         {
           id = Some 9;
           err = P.err ~retry_after_ms:120 ~best_length:44 "overloaded" "m";
         })
  in
  check_bool "retry hint serialised" true
    (contains hinted "\"retry_after_ms\":120");
  check_bool "best_length serialised" true
    (contains hinted "\"best_length\":44");
  (match P.parse_reply hinted with
  | Ok (P.Error_reply { err; _ }) ->
      check "retry hint parses" 120 (Option.get err.P.retry_after_ms);
      check "best_length parses" 44 (Option.get err.P.best_length)
  | _ -> Alcotest.fail "hinted error reply should parse");
  let plain =
    P.reply_to_json
      (P.Error_reply { id = Some 9; err = P.err "parse" "m" })
  in
  check_bool "no hint fields when unset" false
    (contains plain "retry_after_ms" || contains plain "best_length")

let test_engine_deadline_exceeded () =
  let e = Engine.create () in
  let knobs =
    { P.default_knobs with P.deadline_ms = Some 1; passes = Some 10_000 }
  in
  let reply, _ =
    Engine.handle_line e (sched_line ~id:11 ~knobs "elliptic-slow3" "mesh:4x4")
  in
  (match P.parse_reply reply with
  | Ok (P.Error_reply { id; err }) ->
      check "echoes id" 11 (Option.get id);
      check_str "typed deadline error" "deadline_exceeded" err.P.code;
      check_bool "carries best-so-far length" true (err.P.best_length <> None)
  | _ -> Alcotest.fail "expected a deadline_exceeded error reply");
  (* the partial result must never be cached: re-asking without a
     deadline is a miss that computes the full answer *)
  check "partial result not cached" 0 (Engine.stats e).P.entries;
  let knobs = { P.default_knobs with P.passes = Some 32 } in
  let full, _ =
    Engine.handle_line e (sched_line ~id:12 ~knobs "elliptic-slow3" "mesh:4x4")
  in
  (match P.parse_reply full with
  | Ok (P.Scheduled { cached; _ }) -> check_bool "computed fresh" false cached
  | _ -> Alcotest.fail "expected a schedule reply");
  (* the daemon-wide default applies when the request carries none *)
  let e2 = Engine.create ~default_deadline_ms:1 () in
  let knobs = { P.default_knobs with P.passes = Some 10_000 } in
  let reply, _ =
    Engine.handle_line e2 (sched_line ~id:13 ~knobs "elliptic-slow3" "mesh:4x4")
  in
  match P.parse_reply reply with
  | Ok (P.Error_reply { err; _ }) ->
      check_str "default deadline applies" "deadline_exceeded" err.P.code
  | _ -> Alcotest.fail "expected the default deadline to expire"

(* {2 Parent eviction (typed, never internal)} *)

let test_replan_after_parent_eviction () =
  let e = Engine.create ~capacity:1 () in
  let first, _ = Engine.handle_line e (sched_line "fig7" "mesh:2x4") in
  let session =
    match P.parse_reply first with
    | Ok (P.Scheduled { session; _ }) -> session
    | _ -> Alcotest.fail "expected a schedule reply"
  in
  ignore (Engine.handle_line e (sched_line ~id:2 "fig7" "ring:8"));
  (* capacity 1: the ring:8 schedule evicted the mesh session *)
  let reply, _ =
    Engine.handle_line e
      (P.request_to_json ~id:3
         (P.Replan
            { session; fail_pes = [ 2 ]; fail_links = []; deadline_ms = None }))
  in
  match P.parse_reply reply with
  | Ok (P.Error_reply { id; err }) ->
      check "echoes id" 3 (Option.get id);
      check_str "typed, not internal" "unknown_session" err.P.code
  | _ -> Alcotest.fail "expected a typed unknown_session error"

(* {2 Crash-safe warm restart} *)

let state_dir_seq = ref 0

let with_state_dir f =
  incr state_dir_seq;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ccsched-test-state-%d-%d" (Unix.getpid ())
         !state_dir_seq)
  in
  let cleanup () =
    (try Unix.unlink (Filename.concat dir "state.ccsj")
     with Unix.Unix_error _ -> ());
    (try Unix.unlink (Filename.concat dir "state.ccsj.tmp")
     with Unix.Unix_error _ -> ());
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  in
  cleanup ();
  Fun.protect ~finally:cleanup (fun () -> f dir)

let test_warm_restart_byte_identity () =
  with_state_dir @@ fun dir ->
  let sched = sched_line "fig7" "mesh:2x4" in
  let replan_line =
    P.request_to_json ~id:2
      (P.Replan
         {
           session =
             (let e = Engine.create () in
              match
                P.parse_reply (fst (Engine.handle_line e sched))
              with
              | Ok (P.Scheduled { session; _ }) -> session
              | _ -> Alcotest.fail "expected a schedule reply");
           fail_pes = [ 3 ];
           fail_links = [];
           deadline_ms = None;
         })
  in
  let e1 = Engine.create ~state_dir:dir () in
  let miss, _ = Engine.handle_line e1 sched in
  let replanned, _ = Engine.handle_line e1 replan_line in
  Engine.close e1;
  (* a restarted engine answers both byte-identically, as cache hits *)
  let e2 = Engine.create ~state_dir:dir () in
  check "both entries restored" 2 (Engine.stats e2).P.entries;
  let hit, _ = Engine.handle_line e2 sched in
  check_str "restored schedule hit is byte-identical modulo cached"
    (replace ~sub:"\"cached\":false" ~by:"\"cached\":true" miss)
    hit;
  let replan_hit, _ = Engine.handle_line e2 replan_line in
  check_str "restored replan hit is byte-identical modulo cached"
    (replace ~sub:"\"cached\":false" ~by:"\"cached\":true" replanned)
    replan_hit;
  check "restart serves from cache" 2 (Engine.stats e2).P.hits;
  Engine.close e2

let test_warm_restart_replan_chains () =
  with_state_dir @@ fun dir ->
  let sched = sched_line "fig7" "mesh:2x4" in
  let e1 = Engine.create ~state_dir:dir () in
  let session =
    match P.parse_reply (fst (Engine.handle_line e1 sched)) with
    | Ok (P.Scheduled { session; _ }) -> session
    | _ -> Alcotest.fail "expected a schedule reply"
  in
  let first_fault =
    P.request_to_json ~id:2
      (P.Replan
         { session; fail_pes = [ 3 ]; fail_links = []; deadline_ms = None })
  in
  let r1_session =
    match P.parse_reply (fst (Engine.handle_line e1 first_fault)) with
    | Ok (P.Replanned { session; _ }) -> session
    | _ -> Alcotest.fail "expected a replan reply"
  in
  let second_fault =
    P.request_to_json ~id:3
      (P.Replan
         {
           session = r1_session;
           fail_pes = [ 4 ];
           fail_links = [];
           deadline_ms = None;
         })
  in
  (* the reference: chain the second fault on a never-restarted engine *)
  let reference, _ = Engine.handle_line e1 second_fault in
  Engine.close e1;
  (* after a restart the chain's schedules are rebuilt lazily; the
     deterministic scheduler must land on the same bytes *)
  let e2 = Engine.create ~state_dir:dir () in
  let chained, _ = Engine.handle_line e2 second_fault in
  check_str "restored chain replan equals the never-crashed reply"
    (replace ~sub:"\"cached\":false" ~by:"\"cached\":true" reference)
    chained;
  Engine.close e2

let test_restored_chain_reports_evicted_parent () =
  with_state_dir @@ fun dir ->
  let e1 = Engine.create ~state_dir:dir () in
  let session =
    match
      P.parse_reply (fst (Engine.handle_line e1 (sched_line "fig7" "mesh:2x4")))
    with
    | Ok (P.Scheduled { session; _ }) -> session
    | _ -> Alcotest.fail "expected a schedule reply"
  in
  let r1_session =
    match
      P.parse_reply
        (fst
           (Engine.handle_line e1
              (P.request_to_json ~id:2
                 (P.Replan
                    {
                      session;
                      fail_pes = [ 3 ];
                      fail_links = [];
                      deadline_ms = None;
                    }))))
    with
    | Ok (P.Replanned { session; _ }) -> session
    | _ -> Alcotest.fail "expected a replan reply"
  in
  Engine.close e1;
  (* capacity 1: replay keeps only the newest record (the replan), so
     forcing its parent must fail with a typed error, not internal *)
  let e2 = Engine.create ~capacity:1 ~state_dir:dir () in
  check "only the replan survived replay" 1 (Engine.stats e2).P.entries;
  let reply, _ =
    Engine.handle_line e2
      (P.request_to_json ~id:3
         (P.Replan
            {
              session = r1_session;
              fail_pes = [ 4 ];
              fail_links = [];
              deadline_ms = None;
            }))
  in
  (match P.parse_reply reply with
  | Ok (P.Error_reply { err; _ }) ->
      check_str "typed, not internal" "unknown_session" err.P.code
  | _ -> Alcotest.fail "expected a typed unknown_session error");
  Engine.close e2

let test_journal_compacts_under_churn () =
  with_state_dir @@ fun dir ->
  let e = Engine.create ~capacity:4 ~state_dir:dir () in
  (* 80 distinct keys through a 4-entry cache: far more appends than
     live entries, so the engine must compact the journal *)
  for i = 1 to 80 do
    let knobs = { P.default_knobs with P.passes = Some (16 + i) } in
    ignore (Engine.handle_line e (sched_line ~id:i ~knobs "tiny-chain" "ring:4"))
  done;
  let last_knobs = { P.default_knobs with P.passes = Some (16 + 80) } in
  let last, _ =
    Engine.handle_line e (sched_line ~id:99 ~knobs:last_knobs "tiny-chain" "ring:4")
  in
  Engine.close e;
  let size =
    (Unix.stat (Filename.concat dir "state.ccsj")).Unix.st_size
  in
  (* a compacted journal holds ~4 live records, not 80 appends *)
  check_bool "journal stayed bounded" true (size < 80 * 256);
  let e2 = Engine.create ~capacity:4 ~state_dir:dir () in
  check "live entries restored" 4 (Engine.stats e2).P.entries;
  let hit, _ =
    Engine.handle_line e2 (sched_line ~id:99 ~knobs:last_knobs "tiny-chain" "ring:4")
  in
  check_str "most-recent entry survived compaction"
    (replace ~sub:"\"cached\":false" ~by:"\"cached\":true" last)
    hit;
  Engine.close e2

(* {2 Statefile framing (torn tails, corruption at every byte)} *)

let sample_records () =
  [
    Statefile.Sched
      {
        Statefile.s_key = "0123456789abcdef0123456789abcdef";
        s_graph = P.Workload "tiny-chain";
        s_arch = "ring:4";
        s_knobs = P.default_knobs;
        s_length = 7;
        s_passes = 3;
        s_schedule_json = "{\"length\":7,\"slots\":[[1,2],[3]]}";
      };
    Statefile.Replan
      {
        Statefile.r_key = "feedfacefeedfacefeedfacefeedface";
        r_parent = "0123456789abcdef0123456789abcdef";
        r_fail_pes = [ 2 ];
        r_fail_links = [ (1, 3) ];
        r_length = 9;
        r_strategy = "patched";
        r_migration_cost = 4;
        r_moved = 2;
        r_surviving = 5;
        r_schedule_json = "{\"length\":9,\"slots\":[[2],[3]]}";
      };
  ]

let test_statefile_crc_and_round_trip () =
  Alcotest.(check int32)
    "CRC-32 check value" 0xCBF43926l
    (Statefile.crc32 "123456789");
  List.iter
    (fun r ->
      let framed = Statefile.encode_record r in
      let payload = String.sub framed 8 (String.length framed - 8) in
      match Statefile.decode_payload payload with
      | Ok r' -> check_bool "record round-trips" true (r = r')
      | Error msg -> Alcotest.fail ("round trip failed: " ^ msg))
    (sample_records ())

(* Frame a raw payload the way the journal does. *)
let frame payload =
  let b = Bytes.create 8 in
  Bytes.set_int32_be b 0 (Int32.of_int (String.length payload));
  Bytes.set_int32_be b 4 (Statefile.crc32 payload);
  Bytes.to_string b ^ payload

let write_image dir data =
  (try Unix.mkdir dir 0o755
   with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let oc = open_out_bin (Filename.concat dir "state.ccsj") in
  output_string oc data;
  close_out oc

(* Older journals spell every default knob out.  Such records decode to
   the same knobs, replay the same replies, and re-derive the same
   schedule when a replan chains on them. *)
let test_journal_reads_spelled_out_defaults () =
  with_state_dir @@ fun dir ->
  let cold = Engine.create () in
  let cases =
    [
      ( P.default_knobs,
        {|"mode":"relax","transport":"store-and-forward","slowdown":1|} );
      ( every_knob_set,
        {|"mode":"strict","transport":"wormhole","slowdown":2,"passes":12,"speeds":[1,1,1,1,2,2,2,2]|}
      );
    ]
  in
  let requests =
    List.mapi
      (fun i (knobs, _) ->
        let line = sched_line ~id:(i + 1) ~knobs "fig7" "mesh:2x4" in
        (line, fst (Engine.handle_line cold line)))
      cases
  in
  let session_of reply =
    match P.parse_reply reply with
    | Ok (P.Scheduled { session; length; passes; _ }) ->
        (session, length, passes)
    | _ -> Alcotest.fail "expected a schedule reply"
  in
  let payloads =
    List.map2
      (fun (knobs, spelled) (_, miss) ->
        let session, length, passes = session_of miss in
        let payload =
          Printf.sprintf
            {|{"t":"sched","key":"%s","workload":"fig7","arch":"mesh:2x4",%s,"length":%d,"passes_run":%d,"schedule":"%s"}|}
            session spelled length passes
            (P.json_escape (schedule_field miss))
        in
        (match Statefile.decode_payload payload with
        | Ok (Statefile.Sched s) ->
            check_bool ("same knobs from " ^ spelled) true
              (s.Statefile.s_knobs = knobs)
        | _ -> Alcotest.fail ("undecodable: " ^ spelled));
        payload)
      cases requests
  in
  write_image dir
    (Statefile.magic ^ String.concat "" (List.map frame payloads));
  let e = Engine.create ~state_dir:dir () in
  check "both records restored" 2 (Engine.stats e).P.entries;
  List.iter
    (fun (line, miss) ->
      check_str "restored reply is byte-identical modulo cached"
        (replace ~sub:"\"cached\":false" ~by:"\"cached\":true" miss)
        (fst (Engine.handle_line e line)))
    requests;
  let session, _, _ = session_of (snd (List.nth requests 1)) in
  let replan =
    P.request_to_json ~id:9
      (P.Replan
         { session; fail_pes = [ 8 ]; fail_links = []; deadline_ms = None })
  in
  check_str "replan on the restored entry equals the cold one"
    (fst (Engine.handle_line cold replan))
    (fst (Engine.handle_line e replan));
  Engine.close e

(* The journal never stores a deadline, so a restarted daemon's lazy
   re-derivation cannot inherit the first requester's budget. *)
let test_journal_drops_deadline () =
  let record =
    Statefile.Sched
      {
        Statefile.s_key = "0123456789abcdef0123456789abcdef";
        s_graph = P.Workload "fig7";
        s_arch = "mesh:2x4";
        s_knobs = { every_knob_set with P.deadline_ms = Some 250 };
        s_length = 9;
        s_passes = 12;
        s_schedule_json = "{}";
      }
  in
  let framed = Statefile.encode_record record in
  let payload = String.sub framed 8 (String.length framed - 8) in
  check_bool "no deadline_ms field" false
    (replace ~sub:"deadline_ms" ~by:"" payload <> payload);
  match Statefile.decode_payload payload with
  | Ok (Statefile.Sched s) ->
      check_bool "decodes without the deadline" true
        (s.Statefile.s_knobs = every_knob_set)
  | _ -> Alcotest.fail "record did not decode"

(* Write [data] as a fresh journal image and open it. *)
let open_image dir data =
  write_image dir data;
  match Statefile.open_ ~dir with
  | Ok (t, records, dropped) ->
      Statefile.close t;
      (records, dropped)
  | Error msg -> Alcotest.fail ("open_ rejected a corrupt journal: " ^ msg)

let test_statefile_survives_any_truncation () =
  with_state_dir @@ fun dir ->
  let frames = List.map Statefile.encode_record (sample_records ()) in
  let data = Statefile.magic ^ String.concat "" frames in
  let b0 = String.length Statefile.magic in
  let b1 = b0 + String.length (List.nth frames 0) in
  let b2 = b1 + String.length (List.nth frames 1) in
  check "image is the two frames" b2 (String.length data);
  for cut = 0 to String.length data do
    let records, dropped = open_image dir (String.sub data 0 cut) in
    let expect_records, expect_good =
      if cut < b0 then (0, 0)
      else if cut < b1 then (0, b0)
      else if cut < b2 then (1, b1)
      else (2, b2)
    in
    check
      (Printf.sprintf "records after truncation at byte %d" cut)
      expect_records (List.length records);
    let expect_dropped =
      if cut < b0 then cut (* bad magic: everything dropped *)
      else cut - expect_good
    in
    check
      (Printf.sprintf "dropped bytes at cut %d" cut)
      expect_dropped dropped;
    (* the truncated journal is healed: appending then reopening works *)
    if cut = b1 then begin
      (match Statefile.open_ ~dir with
      | Ok (t, _, _) ->
          Statefile.append t (List.nth (sample_records ()) 1);
          Statefile.close t
      | Error msg -> Alcotest.fail msg);
      match Statefile.open_ ~dir with
      | Ok (t, records, dropped) ->
          Statefile.close t;
          check "append after truncation replays" 2 (List.length records);
          check "healed journal drops nothing" 0 dropped
      | Error msg -> Alcotest.fail msg
    end
  done

let test_statefile_survives_any_byte_flip () =
  with_state_dir @@ fun dir ->
  let frames = List.map Statefile.encode_record (sample_records ()) in
  let data = Statefile.magic ^ String.concat "" frames in
  let b0 = String.length Statefile.magic in
  let b1 = b0 + String.length (List.nth frames 0) in
  for pos = 0 to String.length data - 1 do
    let image = Bytes.of_string data in
    Bytes.set image pos (Char.chr (Char.code (Bytes.get image pos) lxor 0x01));
    let records, _ = open_image dir (Bytes.to_string image) in
    (* a flip kills its own record and everything after it — CRC or
       magic — but never earlier records, and never the open itself *)
    let expect = if pos < b0 then 0 else if pos < b1 then 0 else 1 in
    check
      (Printf.sprintf "records after flipping byte %d" pos)
      expect (List.length records)
  done

(* {2 Overload shedding over the socket} *)

let read_lines fd n =
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 4096 in
  let count () =
    String.fold_left
      (fun acc ch -> if ch = '\n' then acc + 1 else acc)
      0 (Buffer.contents buf)
  in
  while count () < n do
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> Alcotest.fail "server closed before all replies arrived"
    | r -> Buffer.add_subbytes buf chunk 0 r
  done;
  String.split_on_char '\n' (Buffer.contents buf)
  |> List.filter (fun l -> l <> "")

let test_socket_overload_shedding () =
  with_server ~config:(fun c -> { c with Service.Server.max_queue = 1 })
  @@ fun path ->
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  (* four requests in one write: they arrive as one batch, the server
     admits max_queue = 1 and sheds the rest with typed replies *)
  let lines =
    sched_line ~id:1 "fig7" "ring:4"
    :: List.map (fun id -> P.request_to_json ~id P.Stats) [ 2; 3; 4 ]
  in
  let payload = String.concat "\n" lines ^ "\n" in
  ignore (Unix.write_substring fd payload 0 (String.length payload));
  let replies = List.map P.parse_reply (read_lines fd 4) in
  let by_id id =
    match
      List.find_opt
        (function
          | Ok (P.Scheduled { id = i; _ })
          | Ok (P.Stats_reply { id = i; _ }) -> i = id
          | Ok (P.Error_reply { id = Some i; _ }) -> i = id
          | _ -> false)
        replies
    with
    | Some r -> r
    | None -> Alcotest.fail (Printf.sprintf "no reply for id %d" id)
  in
  (match by_id 1 with
  | Ok (P.Scheduled _) -> ()
  | _ -> Alcotest.fail "the admitted request should be answered");
  List.iter
    (fun id ->
      match by_id id with
      | Ok (P.Error_reply { err; _ }) ->
          check_str
            (Printf.sprintf "id %d shed with a typed reply" id)
            "overloaded" err.P.code;
          check_bool
            (Printf.sprintf "id %d carries a backoff hint" id)
            true
            (match err.P.retry_after_ms with Some ms -> ms >= 1 | None -> false)
      | _ -> Alcotest.fail (Printf.sprintf "id %d should have been shed" id))
    [ 2; 3; 4 ];
  let shutdown_line = P.request_to_json ~id:5 P.Shutdown ^ "\n" in
  ignore
    (Unix.write_substring fd shutdown_line 0 (String.length shutdown_line));
  (match P.parse_reply (List.hd (read_lines fd 1)) with
  | Ok (P.Shutdown_ack _) -> ()
  | _ -> Alcotest.fail "expected a shutdown ack");
  Unix.close fd

(* {2 Client retries} *)

let test_backoff_schedule () =
  let a = Service.Client.backoff_delays ~retries:5 ~seed:42 in
  check "five delays" 5 (List.length a);
  Alcotest.(check (list (float 1e-12)))
    "deterministic under the seed" a
    (Service.Client.backoff_delays ~retries:5 ~seed:42);
  check_bool "seed changes the jitter" true
    (a <> Service.Client.backoff_delays ~retries:5 ~seed:43);
  List.iteri
    (fun i d ->
      let cap = 0.05 *. (2. ** float_of_int i) in
      check_bool
        (Printf.sprintf "delay %d within [cap/2, cap)" i)
        true
        (d >= (cap /. 2.) -. 1e-12 && d < cap))
    a;
  check "no retries, no delays" 0
    (List.length (Service.Client.backoff_delays ~retries:0 ~seed:1))

let test_retry_exhausts_on_dead_socket () =
  let slept = ref [] in
  let dead =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ccsched-test-dead-%d.sock" (Unix.getpid ()))
  in
  (try Unix.unlink dead with Unix.Unix_error _ -> ());
  let r =
    Service.Client.retrying
      ~sleep:(fun d -> slept := d :: !slept)
      ~retries:3 ~seed:7 dead
  in
  (match
     Service.Client.retrying_rpc_line r (P.request_to_json ~id:1 P.Stats)
   with
  | Error (Service.Client.Connect_failed _) -> ()
  | _ -> Alcotest.fail "a dead socket should exhaust into Connect_failed");
  check "one sleep per retry" 3 (List.length !slept);
  Alcotest.(check (list (float 1e-12)))
    "slept exactly the backoff schedule"
    (Service.Client.backoff_delays ~retries:3 ~seed:7)
    (List.rev !slept);
  check "attempts counted" 3 (Service.Client.retrying_attempts r);
  Service.Client.retrying_close r

let test_retry_passes_through_typed_errors () =
  with_server @@ fun path ->
  let r = Service.Client.retrying ~sleep:(fun _ -> Alcotest.fail "no retry expected") ~retries:5 ~seed:1 path in
  (match
     Service.Client.retrying_rpc_line r
       (P.request_to_json ~id:1
          (P.Replan
             {
               session = "feedfacefeedfacefeedfacefeedface";
               fail_pes = [ 1 ];
               fail_links = [];
               deadline_ms = None;
             }))
   with
  | Ok reply -> (
      match P.parse_reply reply with
      | Ok (P.Error_reply { err; _ }) ->
          check_str "typed server errors are definitive" "unknown_session"
            err.P.code
      | _ -> Alcotest.fail "expected the typed error reply")
  | Error e -> Alcotest.fail (Service.Client.error_to_string e));
  check "no transport retries happened" 0 (Service.Client.retrying_attempts r);
  (match
     Service.Client.retrying_rpc_line r (P.request_to_json ~id:2 P.Shutdown)
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Service.Client.error_to_string e));
  Service.Client.retrying_close r

(* {2 Bounded lines and records} *)

(* A raw connection with both socket timeouts set: a daemon that stops
   reading, or never replies, must fail the test, not hang it. *)
let raw_connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
  Unix.setsockopt_float fd Unix.SO_SNDTIMEO 10.;
  fd

(* Write [s] until it is all sent ([`Sent]), the daemon closes the
   connection ([`Closed]) or stops taking bytes ([`Stalled]). *)
let raw_send fd s =
  let rec go off =
    if off >= String.length s then `Sent
    else
      match Unix.write_substring fd s off (String.length s - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
          `Closed
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          `Stalled
  in
  go 0

(* Everything the daemon sends, and whether it then closed the
   connection (false when the receive timeout came first). *)
let raw_drain fd =
  let buf = Buffer.create 512 and chunk = Bytes.create 65536 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> true
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        go ()
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> true
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        false
  in
  let closed = go () in
  (Buffer.contents buf, closed)

(* A second client is served, and stops the daemon whatever happened
   before, so a failed check cannot leave the server domain running. *)
let serve_second_and_stop path =
  let c = connect_exn path in
  let second = rpc_exn c (sched_line ~id:2 "fig7" "ring:4") in
  ignore (rpc_exn c (P.request_to_json ~id:3 P.Shutdown));
  Service.Client.close c;
  match P.parse_reply second with
  | Ok (P.Scheduled _) -> ()
  | _ -> Alcotest.fail "a second client is still served"

let check_too_large refused =
  check_bool "id is null" true (contains refused "\"id\":null");
  match P.parse_reply refused with
  | Ok (P.Error_reply { id = None; err }) ->
      check_str "typed refusal" "too_large" err.P.code
  | _ -> Alcotest.fail "expected a too_large error reply"

(* A line over the cap, never finished, gets a typed too_large reply
   and a closed connection; the daemon keeps serving other clients. *)
let test_socket_line_cap () =
  with_server @@ fun path ->
  let fd = raw_connect path in
  ignore (raw_send fd (P.request_to_json ~id:1 P.Stats ^ "\n"));
  ignore (raw_send fd (String.make (Service.Server.max_line + 1) 'x'));
  let out, closed = raw_drain fd in
  Unix.close fd;
  serve_second_and_stop path;
  check_bool "the connection closed" true closed;
  match String.split_on_char '\n' out with
  | [ stats; refused; "" ] ->
      (match P.parse_reply stats with
      | Ok (P.Stats_reply { id = 1; _ }) -> ()
      | _ -> Alcotest.fail "the line before the long one is answered first");
      check_too_large refused
  | lines ->
      Alcotest.fail
        (Printf.sprintf "expected two replies then EOF, got %d lines"
           (List.length lines))

(* A machine over the processor cap is refused before it is built, so
   the one daemon thread is free for the next request at once. *)
let test_socket_machine_cap () =
  with_server @@ fun path ->
  let c = connect_exn path in
  let refused = rpc_exn c (sched_line ~id:1 "fig7" "hypercube:16") in
  Service.Client.close c;
  serve_second_and_stop path;
  match P.parse_reply refused with
  | Ok (P.Error_reply { id = Some 1; err }) ->
      check_str "typed refusal" "bad_request" err.P.code
  | _ -> Alcotest.fail "expected a bad_request error reply"

(* About 1 MiB of pipelined schedule requests, whose replies the socket
   cannot hold while the client is not reading, and the request line
   they all answer. *)
let pipelined_requests () =
  let line = sched_line ~id:1 "fig7" "mesh:2x4" in
  let reply, _ = Engine.handle_line (Engine.create ()) line in
  let n = ((1 lsl 20) / (String.length reply + 1)) + 1 in
  (n, String.concat "" (List.init n (fun _ -> line ^ "\n")))

(* A pipelining client refused while the daemon still holds replies it
   has not read gets exactly one too_large, after those replies, and
   then EOF.  It keeps sending the long line from a second domain; the
   first reads only after the daemon has held its output a while. *)
let test_socket_refused_once () =
  with_server @@ fun path ->
  let n, requests = pipelined_requests () in
  let fd = raw_connect path in
  let sender =
    Domain.spawn (fun () ->
        ignore (raw_send fd requests);
        raw_send fd (String.make (Service.Server.max_line + (1 lsl 20)) 'x'))
  in
  Unix.sleepf 1.;
  let out, closed = raw_drain fd in
  let sent = Domain.join sender in
  Unix.close fd;
  serve_second_and_stop path;
  check_bool "the connection closed" true closed;
  check_bool "the daemon stopped reading, then closed" true (sent = `Closed);
  let lines = String.split_on_char '\n' out in
  check "replies, one refusal, EOF" (n + 2) (List.length lines);
  List.iteri
    (fun i line ->
      if i < n then
        match P.parse_reply line with
        | Ok (P.Scheduled _) -> ()
        | _ -> Alcotest.fail (Printf.sprintf "reply %d is not a schedule" i)
      else if i = n then check_too_large line
      else check_str "nothing after the refusal" "" line)
    lines

(* A refused client that never reads its replies, blocked writing the
   rest of its line, is dropped after the write timeout. *)
let test_socket_refused_stalled () =
  with_server ~config:(fun c -> { c with Service.Server.write_timeout = 1. })
  @@ fun path ->
  let _, requests = pipelined_requests () in
  let fd = raw_connect path in
  ignore (raw_send fd requests);
  let sent =
    raw_send fd (String.make (Service.Server.max_line + (1 lsl 20)) 'x')
  in
  Unix.close fd;
  serve_second_and_stop path;
  check_bool "the daemon closed the stalled connection" true (sent = `Closed)

(* Replay rejects a payload over 64 MiB, and truncates every record after
   it: the journal never writes one, and the next record survives. *)
let test_statefile_skips_unreplayable_record () =
  with_state_dir @@ fun dir ->
  let sched, replan =
    match sample_records () with
    | [ s; r ] -> (s, r)
    | _ -> Alcotest.fail "two sample records"
  in
  (* each 0x01 byte is escaped to six, so this graph text is 64 MiB + *)
  let huge =
    Statefile.Sched
      {
        Statefile.s_key = "00000000000000000000000000000000";
        s_graph = P.Inline (String.make (((1 lsl 26) / 6) + 1024) '\x01');
        s_arch = "ring:4";
        s_knobs = P.default_knobs;
        s_length = 1;
        s_passes = 1;
        s_schedule_json = "{}";
      }
  in
  (match Statefile.open_ ~dir with
  | Ok (t, _, _) ->
      List.iter (Statefile.append t) [ sched; huge; replan ];
      check "only the bounded records were appended" 2 (Statefile.appended t);
      Statefile.close t
  | Error msg -> Alcotest.fail msg);
  match Statefile.open_ ~dir with
  | Ok (t, records, dropped) ->
      Statefile.close t;
      check "nothing truncated" 0 dropped;
      check_bool "the records around the skipped one replay" true
        (records = [ sched; replan ])
  | Error msg -> Alcotest.fail msg

(* Framing a record costs a small multiple of its size: the payload is
   built once in a presized buffer, checksummed without boxing, and
   written after its header rather than copied into a frame. *)
let test_statefile_append_allocation () =
  with_state_dir @@ fun dir ->
  let slot = "{\"node\":\"n12345\",\"pe\":3,\"cb\":42}," in
  let copies = ((10 lsl 20) / String.length slot) + 1 in
  let schedule = String.concat "" (List.init copies (fun _ -> slot)) in
  let record =
    match sample_records () with
    | Statefile.Sched s :: _ ->
        Statefile.Sched { s with Statefile.s_schedule_json = schedule }
    | _ -> Alcotest.fail "a sample schedule record"
  in
  let framed = String.length (Statefile.encode_record record) in
  check_bool "a record of 10 MB or more" true (framed >= 10 lsl 20);
  match Statefile.open_ ~dir with
  | Ok (t, _, _) ->
      let before = Gc.allocated_bytes () in
      Statefile.append t record;
      let allocated = Gc.allocated_bytes () -. before in
      Statefile.close t;
      check "appended" 1 (Statefile.appended t);
      check_bool
        (Printf.sprintf "allocated %.0f bytes for a %d-byte frame" allocated
           framed)
        true
        (allocated <= 3. *. float_of_int framed)
  | Error msg -> Alcotest.fail msg

(* Labels may hold any byte but space, tab and newline; control bytes
   stay escaped in the export and in daemon replies. *)
let test_control_bytes_stay_escaped () =
  let text =
    "csdfg ctl\nnode A\x01 1\nnode B\r 2\nedge A\x01 B\r 0 1\nedge B\r A\x01 1 1\n"
  in
  let g = Result.get_ok (Dataflow.Io.of_string text) in
  let topo = Result.get_ok (Topology.of_spec "ring:4") in
  let exported =
    Cyclo.Export.to_json (Cyclo.Compaction.run_on g topo).Cyclo.Compaction.best
  in
  let reply, _ =
    Engine.handle_line (Engine.create ())
      (P.request_to_json ~id:1
         (P.Schedule
            { graph = P.Inline text; arch = "ring:4"; knobs = P.default_knobs }))
  in
  List.iter
    (fun (what, json) ->
      check_bool (what ^ " has no raw control byte") true
        (String.for_all (fun c -> Char.code c >= 0x20) json);
      match Obs.Json.parse json with
      | Error e -> Alcotest.fail (what ^ " is not JSON: " ^ e)
      | Ok _ -> ())
    [ ("export", exported); ("reply", reply) ];
  let labels =
    match Obs.Json.parse exported with
    | Ok j ->
        Option.bind (Obs.Json.member "assignments" j) Obs.Json.to_list
        |> Option.get
        |> List.filter_map (fun a ->
               Option.bind (Obs.Json.member "node" a) Obs.Json.to_str)
        |> List.sort compare
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check (list string)) "labels parse back" [ "A\x01"; "B\r" ] labels;
  check_str "the reply embeds the export" exported (schedule_field reply)

(* {2 Every daemon path against the one-shot pipeline} *)

let uncached reply =
  replace ~sub:"\"cached\":true" ~by:"\"cached\":false" reply

(* Random connected loops sent inline, on several machines, both modes
   and both transports: handle_line, handle_batch (with a duplicate and
   a traced twin, on 1 and 2 domains) and a reopened engine all give the
   reply whose schedule is the one-shot export, and that schedule is
   legal.  A replan failing the last processor gives the same bytes —
   reply or typed error — whether its parent is live or restored. *)
let prop_daemon_paths_agree =
  QCheck.Test.make ~count:24 ~name:"daemon paths agree with the one-shot"
    (QCheck.make
       QCheck.Gen.(
         tup4 (int_range 8 16) (int_bound 100_000)
           (oneofl [ "ring:4"; "mesh:2x3"; "hypercube:3"; "linear:5" ])
           (pair
              (oneofl
                 [ Cyclo.Remap.With_relaxation; Cyclo.Remap.Without_relaxation ])
              (oneofl [ Cachekey.Store_and_forward; Cachekey.Wormhole ]))))
    (fun (nodes, seed, arch, (mode, transport)) ->
      let g =
        Workloads.Random_gen.generate_connected
          ~params:{ Workloads.Random_gen.default with nodes }
          ~seed ()
      in
      let text = Dataflow.Io.to_string g in
      let knobs = { P.default_knobs with P.mode; transport } in
      let request = P.Schedule { graph = P.Inline text; arch; knobs } in
      let line = P.request_to_json ~id:1 request in
      let topo = Result.get_ok (Topology.of_spec arch) in
      let one_shot =
        let g, comm =
          Cachekey.instance knobs
            (Result.get_ok (Dataflow.Io.of_string text))
            topo
        in
        (Cyclo.Compaction.run ~mode g comm).Cyclo.Compaction.best
      in
      if Result.is_error (Cyclo.Validator.check one_shot) then
        QCheck.Test.fail_report "one-shot schedule is illegal";
      if Result.is_error (Cyclo.Validator.check_topology one_shot topo) then
        QCheck.Test.fail_report "one-shot schedule does not fit the machine";
      let live = Engine.create () in
      let reference, _ = Engine.handle_line live line in
      if schedule_field reference <> Cyclo.Export.to_json one_shot then
        QCheck.Test.fail_report "handle_line differs from the one-shot export";
      List.iter
        (fun domains ->
          let traced = P.request_to_json ~trace:true ~id:1 request in
          match
            Engine.handle_batch ~domains (Engine.create ())
              [ line; line; traced ]
          with
          | [ (miss, _); (dup, _); (twin, _) ] ->
              if
                miss <> reference || uncached dup <> reference
                || uncached (strip_trace twin) <> reference
              then
                QCheck.Test.fail_reportf "handle_batch differs on %d domains"
                  domains
          | _ -> QCheck.Test.fail_report "three replies expected")
        [ 1; 2 ];
      let session =
        match P.parse_reply reference with
        | Ok (P.Scheduled { session; _ }) -> session
        | _ -> QCheck.Test.fail_report "expected a schedule reply"
      in
      let replan =
        P.request_to_json ~id:2
          (P.Replan
             {
               session;
               fail_pes = [ Topology.n_processors topo ];
               fail_links = [];
               deadline_ms = None;
             })
      in
      with_state_dir (fun dir ->
          let first = Engine.create ~state_dir:dir () in
          ignore (Engine.handle_line first line);
          Engine.close first;
          let reopened = Engine.create ~state_dir:dir () in
          let hit, _ = Engine.handle_line reopened line in
          let restored, _ = Engine.handle_line reopened replan in
          Engine.close reopened;
          let on_live, _ = Engine.handle_line live replan in
          if uncached hit <> reference then
            QCheck.Test.fail_report "the reopened engine differs";
          if restored <> on_live then
            QCheck.Test.fail_reportf "replan differs: live %s, restored %s"
              on_live restored;
          match P.parse_reply on_live with
          | Ok (P.Replanned _) -> true
          | Ok (P.Error_reply { err; _ }) when err.P.code <> "internal" -> true
          | _ -> QCheck.Test.fail_reportf "untyped replan reply %s" on_live))

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "service"
    [
      ( "golden",
        [
          Alcotest.test_case "hit equals cold miss" `Quick
            test_hit_byte_identical_to_cold_miss;
          Alcotest.test_case "reply equals one-shot export" `Quick
            test_reply_matches_one_shot_export;
        ] );
      ( "cache-key",
        [
          q prop_digest_injective_across_knobs;
          Alcotest.test_case "graph identity" `Quick
            test_digest_covers_graph_identity;
          Alcotest.test_case "replan digests chain" `Quick
            test_replan_digest_chains;
          Alcotest.test_case "golden keys" `Quick test_golden_keys;
        ] );
      ( "replan",
        [
          Alcotest.test_case "matches Degrade.replan" `Quick
            test_replan_matches_degrade;
          Alcotest.test_case "unknown session" `Quick
            test_replan_unknown_session;
        ] );
      ( "lru",
        [
          Alcotest.test_case "eviction order" `Quick test_lru_eviction_order;
          Alcotest.test_case "engine bound" `Quick
            test_engine_respects_cache_bound;
        ] );
      ( "batch",
        [
          Alcotest.test_case "parallel equals sequential" `Quick
            test_batch_matches_sequential;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "malformed lines" `Quick
            test_malformed_lines_become_error_replies;
          Alcotest.test_case "bad knob replies" `Quick test_bad_knob_replies;
          q prop_knob_codec_round_trips;
          q prop_parse_request_total;
          Alcotest.test_case "inline graph" `Quick
            test_inline_graph_round_trips;
          Alcotest.test_case "inline late zero-delay cycle" `Quick
            test_inline_late_cycle_is_bad_graph;
          Alcotest.test_case "control bytes stay escaped" `Quick
            test_control_bytes_stay_escaped;
        ] );
      ("paths", [ q prop_daemon_paths_agree ]);
      ( "telemetry",
        [
          Alcotest.test_case "metrics and health" `Quick
            test_engine_metrics_and_health;
          Alcotest.test_case "traced reply byte-identity" `Quick
            test_traced_reply_byte_identity;
        ] );
      ( "socket",
        [
          Alcotest.test_case "round trip" `Quick test_socket_round_trip;
          Alcotest.test_case "two-client trace identity" `Quick
            test_socket_trace_identity;
          Alcotest.test_case "overload shedding" `Quick
            test_socket_overload_shedding;
          Alcotest.test_case "line over the cap" `Quick test_socket_line_cap;
          Alcotest.test_case "machine over the cap" `Quick
            test_socket_machine_cap;
          Alcotest.test_case "one refusal with replies pending" `Quick
            test_socket_refused_once;
          Alcotest.test_case "stalled refused client dropped" `Quick
            test_socket_refused_stalled;
          Alcotest.test_case "failing test stops the server" `Quick
            test_with_server_failure_returns;
        ] );
      ( "deadline",
        [
          Alcotest.test_case "compaction budget" `Quick
            test_time_budget_cancels_compaction;
          Alcotest.test_case "degrade budget" `Quick
            test_time_budget_cancels_degrade;
          Alcotest.test_case "wire fields round-trip" `Quick
            test_protocol_deadline_and_hints;
          Alcotest.test_case "engine deadline_exceeded" `Quick
            test_engine_deadline_exceeded;
          Alcotest.test_case "evicted parent is typed" `Quick
            test_replan_after_parent_eviction;
        ] );
      ( "statefile",
        [
          Alcotest.test_case "crc and round trip" `Quick
            test_statefile_crc_and_round_trip;
          Alcotest.test_case "truncation at every byte" `Quick
            test_statefile_survives_any_truncation;
          Alcotest.test_case "corruption at every byte" `Quick
            test_statefile_survives_any_byte_flip;
          Alcotest.test_case "spelled-out default knobs" `Quick
            test_journal_reads_spelled_out_defaults;
          Alcotest.test_case "deadline never stored" `Quick
            test_journal_drops_deadline;
          Alcotest.test_case "unreplayable record skipped" `Quick
            test_statefile_skips_unreplayable_record;
          Alcotest.test_case "append allocation bounded" `Quick
            test_statefile_append_allocation;
        ] );
      ( "warm-restart",
        [
          Alcotest.test_case "byte identity" `Quick
            test_warm_restart_byte_identity;
          Alcotest.test_case "replan chains" `Quick
            test_warm_restart_replan_chains;
          Alcotest.test_case "evicted parent after replay" `Quick
            test_restored_chain_reports_evicted_parent;
          Alcotest.test_case "journal compaction" `Quick
            test_journal_compacts_under_churn;
        ] );
      ( "retry",
        [
          Alcotest.test_case "backoff schedule" `Quick test_backoff_schedule;
          Alcotest.test_case "dead socket exhausts" `Quick
            test_retry_exhausts_on_dead_socket;
          Alcotest.test_case "typed errors pass through" `Quick
            test_retry_passes_through_typed_errors;
        ] );
    ]
