(* Observability layer (Obs.Trace / Obs.Counters): the no-op fast path,
   span nesting, the counters registry, per-domain stream merging, the
   Chrome trace_event exporter, and a golden structure test pinning the
   span tree and counter values of the fig7 / mesh-2x4 compaction run —
   including that enabling tracing leaves the schedule byte-identical to
   the golden signature. *)

module Trace = Obs.Trace
module Counters = Obs.Counters
module Histogram = Obs.Histogram
module Schedule = Cyclo.Schedule
module Compaction = Cyclo.Compaction

module Journal = Obs.Journal
module Profile = Obs.Profile

let quiet () =
  Trace.disable ();
  Counters.disable ();
  Journal.disable ();
  Trace.reset ();
  Counters.reset ();
  Journal.reset ()

(* ------------------------------------------------------------------ *)
(* Fast path                                                            *)
(* ------------------------------------------------------------------ *)

let test_disabled_is_noop () =
  quiet ();
  let r = Trace.with_span "unrecorded" (fun () -> 41 + 1) in
  Alcotest.(check int) "with_span passes the result through" 42 r;
  Alcotest.(check int) "no span recorded" 0 (List.length (Trace.spans ()));
  let c = Counters.counter "test.noop" in
  Counters.incr c;
  Counters.incr c ~by:10;
  Counters.set c 99;
  Alcotest.(check int) "counter untouched while disabled" 0 (Counters.value c)

(* A disabled probe is one atomic load: 10^4 calls of each record
   nothing and allocate not one minor word.  The probes' arguments are
   built once, outside the measured loop. *)
let noop () = ()
let c_off = Counters.counter "test.off"
let h_off = Histogram.histogram "test.off"
let ev_off = Journal.Rotated { nodes = [ 1; 2 ] }

let minor_words_of f =
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    f ()
  done;
  Gc.minor_words () -. before

let test_disabled_allocates_nothing () =
  quiet ();
  List.iter
    (fun (probe, f) ->
      Alcotest.(check (float 0.))
        (probe ^ " allocates nothing") 0. (minor_words_of f))
    [
      ("Trace.with_span", fun () -> Trace.with_span "off" noop);
      ("Counters.incr", fun () -> Counters.incr c_off);
      ("Histogram.observe", fun () -> Histogram.observe h_off 5);
      ("Journal.record", fun () -> Journal.record ev_off);
    ];
  Alcotest.(check int) "no span" 0 (List.length (Trace.spans ()));
  Alcotest.(check int) "no count" 0 (Counters.value c_off);
  Alcotest.(check int) "no sample" 0 (Histogram.count h_off);
  Alcotest.(check int) "no event" 0 (List.length (Journal.events ()))

(* ------------------------------------------------------------------ *)
(* Span recording                                                       *)
(* ------------------------------------------------------------------ *)

let shape spans =
  List.map (fun s -> (s.Trace.depth, s.Trace.name)) spans

let test_nesting () =
  Trace.enable ();
  Trace.with_span "outer" (fun () ->
      Trace.with_span "inner" (fun () -> ());
      Trace.with_span "inner" (fun () -> ()));
  Trace.with_span "second-root" (fun () -> ());
  Trace.disable ();
  Alcotest.(check (list (pair int string)))
    "depths and begin order"
    [ (0, "outer"); (1, "inner"); (1, "inner"); (0, "second-root") ]
    (shape (Trace.spans ()));
  List.iter
    (fun s ->
      Alcotest.(check bool)
        ("non-negative duration of " ^ s.Trace.name)
        true
        (s.Trace.dur_ns >= 0 && s.Trace.start_ns >= 0))
    (Trace.spans ());
  quiet ()

let test_span_survives_exception () =
  Trace.enable ();
  (try Trace.with_span "boom" (fun () -> failwith "expected") with
  | Failure _ -> ());
  Trace.disable ();
  Alcotest.(check (list (pair int string)))
    "raising span still recorded" [ (0, "boom") ]
    (shape (Trace.spans ()));
  quiet ()

let test_enable_drops_previous () =
  Trace.enable ();
  Trace.with_span "old" (fun () -> ());
  Trace.enable ();
  Trace.with_span "new" (fun () -> ());
  Trace.disable ();
  Alcotest.(check (list (pair int string)))
    "only the new collection remains" [ (0, "new") ]
    (shape (Trace.spans ()));
  quiet ()

(* ------------------------------------------------------------------ *)
(* Monotonic clock                                                      *)
(* ------------------------------------------------------------------ *)

(* now_ns is CLOCK_MONOTONIC-backed: unlike the wall clock it can never
   jump backwards under NTP adjustment, so consecutive samples are
   non-decreasing — the property the old gettimeofday implementation
   could not offer. *)
let test_monotonic_timestamps () =
  quiet ();
  let samples = Array.init 10_000 (fun _ -> Trace.now_ns ()) in
  let ok = ref true in
  for i = 1 to Array.length samples - 1 do
    if samples.(i) < samples.(i - 1) then ok := false
  done;
  Alcotest.(check bool) "timestamps never decrease" true !ok;
  (* the clock actually advances across real work *)
  let t0 = Trace.now_ns () in
  ignore (Sys.opaque_identity (List.init 100_000 Fun.id));
  Alcotest.(check bool) "clock advances across work" true (Trace.now_ns () > t0);
  (* enable re-bases the origin: spans that follow start near zero and
     stay non-negative *)
  Trace.enable ();
  Trace.with_span "tick" (fun () -> ());
  Trace.disable ();
  List.iter
    (fun s ->
      Alcotest.(check bool) "span timestamps non-negative" true
        (s.Trace.start_ns >= 0 && s.Trace.dur_ns >= 0))
    (Trace.spans ());
  quiet ()

(* ------------------------------------------------------------------ *)
(* Journal                                                              *)
(* ------------------------------------------------------------------ *)

let test_journal_disabled_is_noop () =
  quiet ();
  Journal.record (Journal.Rotated { nodes = [ 1; 2 ] });
  Alcotest.(check int) "disabled record is dropped" 0
    (List.length (Journal.events ()))

let test_journal_basics () =
  Journal.enable ();
  Journal.record
    (Journal.Candidate
       {
         node = 3;
         cs = 2;
         pe = 1;
         reason = Journal.Comm_bound { pred = 0; hops = 1; volume = 2 };
       });
  Journal.record
    (Journal.Placed
       { node = 3; cs = 4; pe = 4; pf = -1; mobility = 1; static_level = 9;
         arrival = 3 });
  Journal.disable ();
  Journal.record (Journal.Rotated { nodes = [ 0 ] });
  (* dropped: disabled *)
  let events = Journal.events () in
  Alcotest.(check int) "two events, recording order" 2 (List.length events);
  (match events with
  | [
   Journal.Candidate
     { node = 3; cs = 2; reason = Journal.Comm_bound { hops = 1; volume = 2; _ }; _ };
   Journal.Placed { node = 3; cs = 4; _ };
  ] ->
      ()
  | _ -> Alcotest.fail "unexpected journal contents");
  let mem needle hay =
    let ln = String.length needle and n = String.length hay in
    let rec go i = i + ln <= n && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  let rendered =
    String.concat "\n"
      (List.map (Fmt.str "%a" (Journal.pp_event ?label:None)) events)
  in
  Alcotest.(check bool) "pp mentions the comm-bound arithmetic" true
    (mem "1 hop x volume 2" rendered);
  let named =
    Fmt.str "%a"
      (Journal.pp_event ~label:(fun v -> String.make 1 (Char.chr (65 + v))))
      (List.hd events)
  in
  Alcotest.(check bool) "labeller renders node names" true
    (mem "comm-bound by A" named);
  Journal.enable ();
  Alcotest.(check int) "enable drops the previous collection" 0
    (List.length (Journal.events ()));
  quiet ()

(* ------------------------------------------------------------------ *)
(* Obs.Json reader                                                      *)
(* ------------------------------------------------------------------ *)

let test_json_reader () =
  let open Obs.Json in
  (match parse {|  {"a": [1, 2.5, "x\nA", true, null], "b": {"c": -3}} |} with
  | Error e -> Alcotest.fail e
  | Ok v ->
      Alcotest.(check (option int))
        "nested int" (Some (-3))
        (Option.bind (member "b" v) (fun b -> Option.bind (member "c" b) to_int));
      (match Option.bind (member "a" v) to_list with
      | Some [ one; half; Str s; Bool true; Null ] ->
          Alcotest.(check (option int)) "int element" (Some 1) (to_int one);
          Alcotest.(check (option (float 1e-9)))
            "float element" (Some 2.5) (to_num half);
          Alcotest.(check string) "escapes decoded" "x\nA" s;
          Alcotest.(check (option int)) "2.5 is not an int" None (to_int half)
      | _ -> Alcotest.fail "array shape"));
  List.iter
    (fun bad ->
      match parse bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted malformed input %S" bad)
    [ "[1, 2"; "{} trailing"; "{\"a\" 1}"; "nul"; "\"open"; "" ];
  (* everything sched_bench writes to the history parses back *)
  (match
     parse
       {|{"schema":"ccsched-bench-history/1","unix_time":1,"host":"h","quick":false,"benchmarks":[{"name":"x","ns_per_run":1.5}],"schedules":[]}|}
   with
  | Ok v ->
      Alcotest.(check (option string))
        "schema readable"
        (Some "ccsched-bench-history/1")
        (Option.bind (member "schema" v) to_str)
  | Error e -> Alcotest.fail e)

(* The writer's hot calls allocate nothing once the buffer has room:
   10^4 calls each, into one presized buffer. *)
let test_json_writer_allocates_nothing () =
  let module W = Obs.Json.Writer in
  let ints = [| 0; 7; -1; 42; -1234567; max_int; min_int |] in
  List.iter
    (fun n ->
      let b = Buffer.create 24 in
      W.add_int b n;
      Alcotest.(check string) "add_int bytes" (string_of_int n)
        (Buffer.contents b))
    (Array.to_list ints);
  let b = Buffer.create (1 lsl 20) in
  let i = ref 0 in
  let next () =
    i := (!i + 1) mod Array.length ints;
    ints.(!i)
  in
  List.iter
    (fun (call, f) ->
      Buffer.clear b;
      Alcotest.(check (float 0.))
        (call ^ " allocates nothing") 0. (minor_words_of f))
    [
      ("add_int", fun () -> W.add_int b (next ()));
      ("add_escaped", fun () -> W.add_escaped b "pe3-node_17");
      ("add_field_int", fun () -> W.add_field_int b "cb" (next ()));
    ]

(* ------------------------------------------------------------------ *)
(* Counters                                                             *)
(* ------------------------------------------------------------------ *)

let test_counters () =
  Counters.enable ();
  let c = Counters.counter "test.counter" in
  let g = Counters.counter "test.gauge" in
  Counters.incr c;
  Counters.incr c ~by:3;
  Counters.set g 7;
  Counters.set g 5;
  Alcotest.(check int) "incr accumulates" 4 (Counters.value c);
  Alcotest.(check int) "set is last-write-wins" 5 (Counters.value g);
  Alcotest.(check bool) "same name, same handle" true
    (Counters.value (Counters.counter "test.counter") = 4);
  let dump = Counters.dump () in
  Alcotest.(check (option int))
    "dump carries the value" (Some 4)
    (List.assoc_opt "test.counter" dump);
  let sorted = List.sort compare dump in
  Alcotest.(check bool) "dump is name-sorted" true (dump = sorted);
  Counters.enable ();
  Alcotest.(check int) "enable zeroes the registry" 0 (Counters.value c);
  quiet ()

(* ------------------------------------------------------------------ *)
(* Histograms                                                           *)
(* ------------------------------------------------------------------ *)

let test_histogram_disabled_is_noop () =
  quiet ();
  let h = Histogram.histogram "test.h.off" in
  Histogram.observe h 5;
  Histogram.observe h 500;
  Alcotest.(check int) "no samples while disabled" 0 (Histogram.count h)

let test_histogram_bucketing () =
  Counters.enable ();
  let h = Histogram.histogram "test.h.buckets" in
  (* bucket 0: v <= 0; bucket i >= 1: 2^(i-1) <= v < 2^i *)
  List.iter (Histogram.observe h) [ 0; -3; 1; 2; 3; 4; 7; 8; 1000 ];
  Alcotest.(check int) "count" 9 (Histogram.count h);
  Alcotest.(check int) "sum clamps negatives" (0 + 0 + 1 + 2 + 3 + 4 + 7 + 8 + 1000)
    (Histogram.sum h);
  Alcotest.(check (list (pair int int)))
    "buckets (upper_bound, count)"
    [ (0, 2); (1, 1); (3, 2); (7, 2); (15, 1); (1023, 1) ]
    (Histogram.buckets h);
  Alcotest.(check (float 1e-9))
    "mean" (1025. /. 9.) (Histogram.mean h);
  Alcotest.(check int) "p0 = smallest bound" 0 (Histogram.quantile h 0.0);
  Alcotest.(check int) "median within 2x" 3 (Histogram.quantile h 0.5);
  Alcotest.(check int) "p100 = largest bound" 1023 (Histogram.quantile h 1.0);
  Alcotest.(check bool) "q out of range rejected" true
    (match Histogram.quantile h 1.5 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "same name, same handle" true
    (Histogram.count (Histogram.histogram "test.h.buckets") = 9);
  quiet ()

let test_histogram_registry () =
  Counters.enable ();
  let a = Histogram.histogram "test.h.a" in
  let b = Histogram.histogram "test.h.b" in
  Histogram.observe a 1;
  Histogram.observe b 100;
  let dump = Histogram.dump () in
  Alcotest.(check bool) "dump is name-sorted" true
    (dump = List.sort (fun (x, _) (y, _) -> compare x y) dump);
  Alcotest.(check (option (list (pair int int))))
    "a's buckets in the dump"
    (Some [ (1, 1) ])
    (List.assoc_opt "test.h.a" dump);
  (* empty histograms appear with no buckets, mirroring Counters.dump *)
  let c = Histogram.histogram "test.h.empty" in
  ignore c;
  Alcotest.(check (option (list (pair int int))))
    "registered-but-empty included" (Some [])
    (List.assoc_opt "test.h.empty" (Histogram.dump ()));
  Counters.enable ();
  Alcotest.(check int) "enable zeroes the registry" 0 (Histogram.count a);
  (* summary printer runs *)
  Histogram.observe a 42;
  let text = Fmt.str "%a" Histogram.pp_summary () in
  Alcotest.(check bool) "summary mentions the histogram" true
    (String.length text > 0);
  quiet ()

(* ------------------------------------------------------------------ *)
(* Per-domain streams (Parutil integration)                             *)
(* ------------------------------------------------------------------ *)

let count name spans =
  List.length (List.filter (fun s -> s.Trace.name = name) spans)

let test_parallel_streams () =
  Trace.enable ();
  Counters.enable ();
  let r = Parutil.Parallel.mapi ~domains:3 (fun i x -> i + x) [ 10; 20; 30; 40 ] in
  Trace.disable ();
  Counters.disable ();
  Alcotest.(check (list int)) "results as List.mapi" [ 10; 21; 32; 43 ] r;
  let spans = Trace.spans () in
  Alcotest.(check int) "one map span" 1 (count "parutil.map" spans);
  Alcotest.(check int) "one span per task" 4 (count "parutil.task" spans);
  Alcotest.(check int) "tasks counted" 4
    (Counters.value (Counters.counter "parutil.tasks"));
  Alcotest.(check int) "domains counted" 3
    (Counters.value (Counters.counter "parutil.domains"));
  (* The merge is keyed on (domain, seq): spans of one domain stay in
     begin order even after worker streams are interleaved. *)
  let rec per_domain_ordered = function
    | a :: (b :: _ as rest) ->
        (a.Trace.domain < b.Trace.domain
        || (a.Trace.domain = b.Trace.domain && a.Trace.seq < b.Trace.seq))
        && per_domain_ordered rest
    | _ -> true
  in
  Alcotest.(check bool) "deterministic merge order" true
    (per_domain_ordered spans);
  quiet ()

(* ------------------------------------------------------------------ *)
(* Chrome trace_event JSON                                              *)
(* ------------------------------------------------------------------ *)

(* Minimal JSON syntax checker — enough to guarantee the exporter's
   output loads in chrome://tracing / Perfetto / json.tool. *)
let json_valid s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\n' | '\t' | '\r') ->
        incr pos;
        skip_ws ()
    | _ -> ()
  in
  let expect c = if peek () = Some c then incr pos else raise Exit in
  let lit w =
    let l = String.length w in
    if !pos + l <= n && String.sub s !pos l = w then pos := !pos + l
    else raise Exit
  in
  let str () =
    expect '"';
    let rec go () =
      match peek () with
      | Some '"' -> incr pos
      | Some '\\' ->
          pos := !pos + 2;
          go ()
      | Some _ ->
          incr pos;
          go ()
      | None -> raise Exit
    in
    go ()
  in
  let number () =
    let numeric = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    (match peek () with
    | Some c when numeric c -> ()
    | _ -> raise Exit);
    while match peek () with Some c when numeric c -> true | _ -> false do
      incr pos
    done
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some '"' -> str ()
    | Some ('-' | '0' .. '9') -> number ()
    | Some 't' -> lit "true"
    | Some 'f' -> lit "false"
    | Some 'n' -> lit "null"
    | _ -> raise Exit
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then incr pos
    else
      let rec members () =
        skip_ws ();
        str ();
        skip_ws ();
        expect ':';
        value ();
        skip_ws ();
        match peek () with
        | Some ',' ->
            incr pos;
            members ()
        | Some '}' -> incr pos
        | _ -> raise Exit
      in
      members ()
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then incr pos
    else
      let rec elems () =
        value ();
        skip_ws ();
        match peek () with
        | Some ',' ->
            incr pos;
            elems ()
        | Some ']' -> incr pos
        | _ -> raise Exit
      in
      elems ()
  in
  match
    value ();
    skip_ws ();
    !pos = n
  with
  | ok -> ok
  | exception Exit -> false

let test_chrome_export () =
  Profile.enable ();
  Trace.with_span "a\"quoted\"" ~args:[ ("k", "v\\w") ] (fun () ->
      Trace.with_span "b" (fun () -> ()));
  Counters.incr (Counters.counter "c.one");
  Counters.incr ~by:2 (Counters.counter "c.two");
  let lat = Histogram.histogram "h.lat" in
  List.iter (Histogram.observe lat) [ 1; 1; 1; 7; 7 ];
  ignore (Histogram.histogram "h.empty");
  Profile.disable ();
  let json = Profile.to_chrome_json () in
  Alcotest.(check bool) "exporter output is valid JSON" true (json_valid json);
  let mem needle =
    let ln = String.length needle and n = String.length json in
    let rec go i = i + ln <= n && (String.sub json i ln = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "has traceEvents" true (mem "\"traceEvents\"");
  Alcotest.(check bool) "has complete events" true (mem "\"ph\": \"X\"");
  Alcotest.(check bool) "has the counters block" true (mem "\"counters\"");
  Alcotest.(check bool) "counter value embedded" true (mem "\"c.two\": 2");
  Alcotest.(check bool) "has the histograms block" true (mem "\"histograms\"");
  Alcotest.(check bool) "histogram buckets embedded" true
    (mem "\"h.lat\": [[1, 3], [7, 2]]");
  Alcotest.(check bool) "escapes quotes in names" true (mem "a\\\"quoted\\\"");
  Alcotest.(check bool) "has the resources block" true (mem "\"resources\"");
  Trace.reset ();
  Alcotest.(check bool) "empty collection still valid" true
    (json_valid (Profile.to_chrome_json ()));
  quiet ()

(* ------------------------------------------------------------------ *)
(* Golden trace: fig7 on mesh-2x4                                       *)
(* ------------------------------------------------------------------ *)

(* From test_golden_signatures.ml — the compacted best schedule must
   stay byte-identical with tracing enabled. *)
let fig7_mesh2x4_best =
  "6;1@0;3@4;3@1;4@4;5@4;1@5;2@2;6@1;3@2;3@5;4@2;5@5;6@4;5@2;2@0;3@0;2@1;1@4;5@0"

let fig7_mesh2x4_passes = 76

let test_golden_trace () =
  let g =
    match Dataflow.Io.read_file ~path:"../data/fig7.csdfg" with
    | Ok g -> g
    | Error e -> Alcotest.fail (Dataflow.Io.error_to_string e)
  in
  let topo = Topology.mesh ~rows:2 ~cols:4 in
  Trace.enable ();
  Counters.enable ();
  let r = Compaction.run_on ~validate:false g topo in
  Trace.disable ();
  Counters.disable ();
  Alcotest.(check string)
    "schedule byte-identical with tracing on" fig7_mesh2x4_best
    (Schedule.signature r.Compaction.best);
  let spans = Trace.spans () in
  (* sequential run: a single stream *)
  List.iter
    (fun s ->
      Alcotest.(check int) "all spans on one domain" 0 s.Trace.domain)
    spans;
  let expected =
    (0, "compaction.run") :: (1, "startup.run")
    :: List.concat
         (List.init fig7_mesh2x4_passes (fun _ ->
              [ (1, "compaction.pass"); (2, "rotation.start") ]))
  in
  Alcotest.(check (list (pair int string)))
    "golden span structure" expected (shape spans);
  let counter name = Counters.value (Counters.counter name) in
  Alcotest.(check int) "one startup run" 1 (counter "startup.runs");
  Alcotest.(check int) "pass counter matches the trace"
    (List.length r.Compaction.trace)
    (counter "compaction.passes");
  Alcotest.(check int) "golden pass count" fig7_mesh2x4_passes
    (counter "compaction.passes");
  Alcotest.(check int) "every pass rotated" fig7_mesh2x4_passes
    (counter "rotation.rotations");
  Alcotest.(check int) "best length gauge" 6
    (counter "compaction.best_length");
  Alcotest.(check bool) "occupancy queries observed" true
    (counter "schedule.occupancy_queries" > 0);
  quiet ()

let () =
  Alcotest.run "obs"
    [
      ( "fast-path",
        [
          Alcotest.test_case "disabled is a no-op" `Quick test_disabled_is_noop;
          Alcotest.test_case "disabled probes allocate nothing" `Quick
            test_disabled_allocates_nothing;
          Alcotest.test_case "JSON writer calls allocate nothing" `Quick
            test_json_writer_allocates_nothing;
        ] );
      ( "trace",
        [
          Alcotest.test_case "nesting and order" `Quick test_nesting;
          Alcotest.test_case "exception safety" `Quick
            test_span_survives_exception;
          Alcotest.test_case "enable starts fresh" `Quick
            test_enable_drops_previous;
        ] );
      ( "clock",
        [
          Alcotest.test_case "monotonic non-decreasing timestamps" `Quick
            test_monotonic_timestamps;
        ] );
      ( "journal",
        [
          Alcotest.test_case "disabled is a no-op" `Quick
            test_journal_disabled_is_noop;
          Alcotest.test_case "record / events / re-enable" `Quick
            test_journal_basics;
        ] );
      ( "json",
        [ Alcotest.test_case "reader accepts and rejects" `Quick test_json_reader ] );
      ( "counters",
        [ Alcotest.test_case "registry semantics" `Quick test_counters ] );
      ( "histograms",
        [
          Alcotest.test_case "disabled is a no-op" `Quick
            test_histogram_disabled_is_noop;
          Alcotest.test_case "log2 bucketing and quantiles" `Quick
            test_histogram_bucketing;
          Alcotest.test_case "registry and dump" `Quick test_histogram_registry;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "per-domain streams merge" `Quick
            test_parallel_streams;
        ] );
      ( "export",
        [ Alcotest.test_case "chrome trace_event JSON" `Quick test_chrome_export ] );
      ( "golden",
        [ Alcotest.test_case "fig7 mesh-2x4 span tree" `Quick test_golden_trace ] );
    ]
