(* Tests for the live-telemetry surface: golden byte-exact Prometheus
   exposition, parse/render agreement under random histogram loads, the
   strict parser's rejections, the monotone delta view, and the
   ccsched-log/1 NDJSON schema round-trip. *)

module E = Obs.Exposition

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* {2 Golden exposition} *)

let golden_counters =
  [
    ("service.cache_hits", Obs.Counters.Counter, 3);
    ("service.queue_depth", Obs.Counters.Gauge, 2);
  ]

let golden_histograms =
  [
    ( "service.request_latency",
      {
        Obs.Histogram.s_count = 4;
        s_sum = 17;
        s_buckets = [ (3, 1); (7, 2); (15, 1) ];
      } );
  ]

let golden_text =
  String.concat "\n"
    [
      "# HELP ccsched_service_cache_hits registry cell service.cache_hits";
      "# TYPE ccsched_service_cache_hits counter";
      "ccsched_service_cache_hits 3";
      "# HELP ccsched_service_queue_depth registry cell service.queue_depth";
      "# TYPE ccsched_service_queue_depth gauge";
      "ccsched_service_queue_depth 2";
      "# HELP ccsched_service_request_latency registry histogram \
       service.request_latency (log2 buckets)";
      "# TYPE ccsched_service_request_latency histogram";
      "ccsched_service_request_latency_bucket{le=\"3\"} 1";
      "ccsched_service_request_latency_bucket{le=\"7\"} 3";
      "ccsched_service_request_latency_bucket{le=\"15\"} 4";
      "ccsched_service_request_latency_bucket{le=\"+Inf\"} 4";
      "ccsched_service_request_latency_sum 17";
      "ccsched_service_request_latency_count 4";
      "";
    ]

let test_golden_render () =
  check_str "byte-exact exposition" golden_text
    (E.render_of ~counters:golden_counters ~histograms:golden_histograms ())

let test_golden_parses_back () =
  match E.parse golden_text with
  | Error m -> Alcotest.fail ("parser rejected its own renderer: " ^ m)
  | Ok fams ->
      check "three families" 3 (List.length fams);
      (match E.find fams "ccsched_service_cache_hits" with
      | Some f ->
          check_bool "counter kind" true (f.E.fam_kind = E.Counter);
          Alcotest.(check (option (float 0.)))
            "counter value" (Some 3.)
            (E.value fams "ccsched_service_cache_hits")
      | None -> Alcotest.fail "cache_hits family missing");
      (match E.find fams "ccsched_service_queue_depth" with
      | Some f -> check_bool "gauge kind" true (f.E.fam_kind = E.Gauge)
      | None -> Alcotest.fail "queue_depth family missing");
      match E.find fams "ccsched_service_request_latency" with
      | Some f ->
          check_bool "histogram kind" true (f.E.fam_kind = E.Histogram);
          Alcotest.(check (option (float 0.)))
            "p50 from cumulative buckets" (Some 7.)
            (E.histogram_quantile f 0.5);
          Alcotest.(check (option (float 0.)))
            "p100 lands on the last finite bucket" (Some 15.)
            (E.histogram_quantile f 1.0)
      | None -> Alcotest.fail "latency family missing"

let test_metric_name () =
  check_str "dots become underscores" "ccsched_service_cache_hits"
    (E.metric_name "service.cache_hits");
  check_str "every illegal char is mapped" "ccsched_a_b_c_1"
    (E.metric_name "a.b-c 1")

(* {2 Render/parse agreement under random loads} *)

let h_prop = Obs.Histogram.histogram "telemetry.prop"

let prop_render_parse_agree =
  QCheck.Test.make ~count:100
    ~name:"rendered registry scrapes parse, cumulative, +Inf == _count"
    QCheck.(list_of_size (QCheck.Gen.int_range 0 40) (int_bound 1_000_000))
    (fun values ->
      Obs.Counters.enable ();
      (* enable resets, so each iteration starts from zero *)
      List.iter (Obs.Histogram.observe h_prop) values;
      let text = E.render () in
      Obs.Counters.disable ();
      match E.parse text with
      | Error m -> QCheck.Test.fail_reportf "parse rejected render: %s" m
      | Ok fams -> (
          let name = E.metric_name "telemetry.prop" in
          match E.find fams name with
          | None -> QCheck.Test.fail_reportf "histogram family missing"
          | Some fam ->
              let sample suffix =
                match
                  List.find_opt
                    (fun s -> s.E.sample_name = name ^ suffix)
                    fam.E.fam_samples
                with
                | Some s -> s.E.value
                | None -> QCheck.Test.fail_reportf "missing %s%s" name suffix
              in
              sample "_count" = float_of_int (List.length values)
              && sample "_sum"
                 = float_of_int (List.fold_left (fun a v -> a + max 0 v) 0 values)))

(* {2 Strict parser rejections} *)

let test_parser_rejections () =
  let expect_reject what text =
    match E.parse text with
    | Ok _ -> Alcotest.fail (what ^ ": should have been rejected")
    | Error _ -> ()
  in
  expect_reject "sample before TYPE" "ccsched_x 1\n";
  expect_reject "duplicate family"
    "# TYPE ccsched_x counter\nccsched_x 1\n# TYPE ccsched_x counter\n\
     ccsched_x 2\n";
  expect_reject "HELP not followed by its TYPE"
    "# HELP ccsched_x something\nccsched_x 1\n";
  expect_reject "unsorted le buckets"
    "# TYPE ccsched_h histogram\nccsched_h_bucket{le=\"7\"} 1\n\
     ccsched_h_bucket{le=\"3\"} 2\nccsched_h_bucket{le=\"+Inf\"} 2\n\
     ccsched_h_sum 5\nccsched_h_count 2\n";
  expect_reject "non-cumulative buckets"
    "# TYPE ccsched_h histogram\nccsched_h_bucket{le=\"3\"} 2\n\
     ccsched_h_bucket{le=\"7\"} 1\nccsched_h_bucket{le=\"+Inf\"} 1\n\
     ccsched_h_sum 5\nccsched_h_count 1\n";
  expect_reject "+Inf bucket missing"
    "# TYPE ccsched_h histogram\nccsched_h_bucket{le=\"3\"} 1\n\
     ccsched_h_sum 1\nccsched_h_count 1\n";
  expect_reject "+Inf disagrees with _count"
    "# TYPE ccsched_h histogram\nccsched_h_bucket{le=\"3\"} 1\n\
     ccsched_h_bucket{le=\"+Inf\"} 1\nccsched_h_sum 1\nccsched_h_count 2\n";
  expect_reject "counter with two samples"
    "# TYPE ccsched_x counter\nccsched_x 1\nccsched_x 2\n";
  match
    E.parse "# TYPE ccsched_x counter\nccsched_x 1\n"
  with
  | Ok [ { E.fam_name = "ccsched_x"; _ } ] -> ()
  | Ok _ | Error _ -> Alcotest.fail "minimal valid scrape should parse"

(* {2 Monotone delta view} *)

let test_delta_view () =
  let render hits depth count =
    E.render_of
      ~counters:
        [
          ("service.cache_hits", Obs.Counters.Counter, hits);
          ("service.queue_depth", Obs.Counters.Gauge, depth);
        ]
      ~histograms:
        [
          ( "service.request_latency",
            {
              Obs.Histogram.s_count = count;
              s_sum = count * 5;
              s_buckets = [ (7, count) ];
            } );
        ]
      ()
  in
  let prev = Result.get_ok (E.parse (render 10 4 2)) in
  let cur = Result.get_ok (E.parse (render 25 3 6)) in
  let d = E.delta ~prev cur in
  Alcotest.(check (option (float 0.)))
    "counter delta" (Some 15.)
    (E.value d "ccsched_service_cache_hits");
  Alcotest.(check (option (float 0.)))
    "gauge passes through" (Some 3.)
    (E.value d "ccsched_service_queue_depth");
  (match E.find d "ccsched_service_request_latency" with
  | Some fam ->
      Alcotest.(check (option (float 0.)))
        "quantile over the delta window" (Some 7.)
        (E.histogram_quantile fam 0.5)
  | None -> Alcotest.fail "latency family missing from delta");
  (* deltas never go negative, even across a counter reset *)
  let d2 = E.delta ~prev:cur prev in
  Alcotest.(check (option (float 0.)))
    "reset clamps to zero" (Some 0.)
    (E.value d2 "ccsched_service_cache_hits");
  (* ... histograms clamp the same way, and the clamped result is
     still a well-formed cumulative vector ... *)
  (match E.find d2 "ccsched_service_request_latency" with
  | Some fam ->
      List.iter
        (fun s ->
          Alcotest.(check bool)
            ("histogram reset clamps " ^ s.E.sample_name)
            true (s.E.value = 0.))
        fam.E.fam_samples
  | None -> Alcotest.fail "latency family missing across the reset");
  (* ... while gauges are instantaneous readings: a gauge that dropped
     (an RSS release, a drained queue) passes through as its raw
     current value instead of being clamped *)
  Alcotest.(check (option (float 0.)))
    "falling gauge passes through across the reset" (Some 4.)
    (E.value d2 "ccsched_service_queue_depth")

(* {2 ccsched-log/1 round-trip} *)

let test_log_round_trip () =
  let line =
    Obs.Log.render ~ts_ns:123456789 ~level:Obs.Log.Warn
      ~event:"sch\"edu\nle" ~request_id:7 ~session:"abc" ~duration_ns:99
      ~kv:
        [
          ("cached", Obs.Log.B true);
          ("length", Obs.Log.I 42);
          ("ratio", Obs.Log.F 0.5);
          ("note", Obs.Log.S "tab\there");
        ]
      ()
  in
  check_bool "one line" true (not (String.contains line '\n'));
  match Obs.Json.parse line with
  | Error m -> Alcotest.fail ("log line is not valid JSON: " ^ m)
  | Ok json ->
      let str name = Option.bind (Obs.Json.member name json) Obs.Json.to_str in
      let int name = Option.bind (Obs.Json.member name json) Obs.Json.to_int in
      Alcotest.(check (option string)) "schema" (Some Obs.Log.schema) (str "log");
      Alcotest.(check (option int)) "ts_ns" (Some 123456789) (int "ts_ns");
      Alcotest.(check (option string)) "level" (Some "warn") (str "level");
      Alcotest.(check (option string))
        "event with escapes" (Some "sch\"edu\nle") (str "event");
      Alcotest.(check (option int)) "request_id" (Some 7) (int "request_id");
      Alcotest.(check (option string)) "session" (Some "abc") (str "session");
      Alcotest.(check (option int)) "duration_ns" (Some 99) (int "duration_ns");
      Alcotest.(check (option int)) "int kv" (Some 42) (int "length");
      Alcotest.(check (option string))
        "string kv with tab" (Some "tab\there") (str "note");
      check_bool "bool kv" true
        (Obs.Json.member "cached" json = Some (Obs.Json.Bool true));
      Alcotest.(check (option (float 0.)))
        "float kv" (Some 0.5)
        (Option.bind (Obs.Json.member "ratio" json) Obs.Json.to_num)

let test_log_threshold_and_sink () =
  let buf = Buffer.create 256 in
  Obs.Log.enable ~level:Obs.Log.Warn (fun line ->
      Buffer.add_string buf line;
      Buffer.add_char buf '\n');
  check_bool "info below threshold" false (Obs.Log.would_log Obs.Log.Info);
  Obs.Log.emit ~kv:[ ("dropped", Obs.Log.B true) ] Obs.Log.Info "quiet";
  Obs.Log.emit ~request_id:3 Obs.Log.Error "loud";
  Obs.Log.disable ();
  Obs.Log.emit Obs.Log.Error "after-disable";
  let lines =
    String.split_on_char '\n' (Buffer.contents buf)
    |> List.filter (fun l -> l <> "")
  in
  check "exactly the one eligible line" 1 (List.length lines);
  match Obs.Json.parse (List.hd lines) with
  | Ok json ->
      Alcotest.(check (option string))
        "event" (Some "loud")
        (Option.bind (Obs.Json.member "event" json) Obs.Json.to_str);
      check_bool "monotonic timestamp present" true
        (Option.bind (Obs.Json.member "ts_ns" json) Obs.Json.to_int <> None)
  | Error m -> Alcotest.fail ("emitted line is not valid JSON: " ^ m)

(* {2 Registry snapshots} *)

let test_registry_snapshots () =
  Obs.Counters.enable ();
  let c = Obs.Counters.counter "telemetry.snap_counter" in
  let g = Obs.Counters.gauge "telemetry.snap_gauge" in
  Obs.Counters.incr ~by:3 c;
  Obs.Counters.set g 9;
  let snap = Obs.Counters.snapshot () in
  Obs.Counters.disable ();
  check_bool "counter kind and value" true
    (List.mem ("telemetry.snap_counter", Obs.Counters.Counter, 3) snap);
  check_bool "gauge kind and value" true
    (List.mem ("telemetry.snap_gauge", Obs.Counters.Gauge, 9) snap);
  check_bool "snapshot is sorted" true
    (List.sort compare snap = snap);
  Obs.Counters.enable ();
  let h = Obs.Histogram.histogram "telemetry.snap_hist" in
  List.iter (Obs.Histogram.observe h) [ 1; 2; 100 ];
  let s = Obs.Histogram.snap h in
  Obs.Counters.disable ();
  check "snapshot count" 3 s.Obs.Histogram.s_count;
  check "snapshot sum" 103 s.Obs.Histogram.s_sum;
  check "count equals bucket total" 3
    (List.fold_left (fun a (_, c) -> a + c) 0 s.Obs.Histogram.s_buckets)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "telemetry"
    [
      ( "exposition",
        [
          Alcotest.test_case "golden render" `Quick test_golden_render;
          Alcotest.test_case "golden parses back" `Quick
            test_golden_parses_back;
          Alcotest.test_case "metric names" `Quick test_metric_name;
          q prop_render_parse_agree;
          Alcotest.test_case "strict rejections" `Quick
            test_parser_rejections;
          Alcotest.test_case "delta view" `Quick test_delta_view;
        ] );
      ( "log",
        [
          Alcotest.test_case "schema round-trip" `Quick test_log_round_trip;
          Alcotest.test_case "threshold and sink" `Quick
            test_log_threshold_and_sink;
        ] );
      ( "snapshots",
        [
          Alcotest.test_case "counters and histograms" `Quick
            test_registry_snapshots;
        ] );
    ]
