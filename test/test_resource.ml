(* Resource attribution (the allocation half of Obs.Trace spans, rolled
   up by Obs.Resource): the disabled fast path, span nesting with
   per-domain monotone counters (children never account for more
   allocation than their parent), process-level sampling, the process/gc
   gauge families in the Prometheus exposition, and a golden
   byte-identity test: enabling span probes leaves the fig7 / mesh-2x4
   compacted schedule byte-identical to the golden signature. *)

module Trace = Obs.Trace
module Counters = Obs.Counters
module Resource = Obs.Resource
module E = Obs.Exposition
module Schedule = Cyclo.Schedule
module Compaction = Cyclo.Compaction

let quiet () =
  Trace.disable ();
  Counters.disable ();
  Trace.reset ();
  Counters.reset ()

(* ------------------------------------------------------------------ *)
(* Fast path                                                            *)
(* ------------------------------------------------------------------ *)

let test_disabled_is_noop () =
  quiet ();
  let r = Trace.with_span "unrecorded" (fun () -> 41 + 1) in
  Alcotest.(check int) "with_span passes the result through" 42 r;
  Alcotest.(check int) "no span recorded" 0 (List.length (Trace.spans ()));
  (* a second probe of another result type is a no-op too *)
  let r' = Trace.with_span "also.unrecorded" (fun () -> "ok") in
  Alcotest.(check string) "trace probe passes through" "ok" r';
  Alcotest.(check int) "still no span" 0 (List.length (Trace.spans ()))

(* ------------------------------------------------------------------ *)
(* Span nesting and attribution                                         *)
(* ------------------------------------------------------------------ *)

(* Allocate [n] boxed pairs so the span demonstrably touches the minor
   heap; return something depending on the data so nothing is dead. *)
let churn n =
  let acc = ref 0 in
  for i = 1 to n do
    let p = (i, i + 1) in
    acc := !acc + fst p
  done;
  !acc

let test_nesting_structure () =
  quiet ();
  Trace.enable ();
  let _ =
    Trace.with_span "parent" (fun () ->
        let a = Trace.with_span "child.a" (fun () -> churn 500) in
        let b = Trace.with_span "child.b" (fun () -> churn 500) in
        a + b)
  in
  Trace.disable ();
  let spans = Trace.spans () in
  Alcotest.(check (list (pair int string)))
    "depth and begin order"
    [ (0, "parent"); (1, "child.a"); (1, "child.b") ]
    (List.map (fun s -> (s.Trace.depth, s.Trace.name)) spans);
  List.iter
    (fun s ->
      Alcotest.(check int) "single domain" 0 s.Trace.domain;
      Alcotest.(check bool) (s.Trace.name ^ " minor_words >= 0") true
        (s.Trace.minor_words >= 0);
      Alcotest.(check bool) (s.Trace.name ^ " top_heap growth >= 0") true
        (s.Trace.top_heap_words >= 0))
    spans;
  Alcotest.(check (list int)) "per-domain seq numbers" [ 0; 1; 2 ]
    (List.map (fun s -> s.Trace.seq) spans);
  quiet ()

(* A span's minor words are exact, not rounded to the last minor
   collection: a body that conses 1,000 list cells (3 words each)
   reports them, plus the few words the probe itself allocates. *)
let test_minor_words_exact () =
  quiet ();
  Trace.enable ();
  let rec build n acc = if n = 0 then acc else build (n - 1) (n :: acc) in
  let l = Trace.with_span "conses" (fun () -> build 1000 []) in
  Trace.disable ();
  Alcotest.(check int) "list built" 1000 (List.length l);
  let s = List.find (fun s -> s.Trace.name = "conses") (Trace.spans ()) in
  Alcotest.(check bool)
    (Printf.sprintf "3000..3100 minor words (got %d)" s.Trace.minor_words)
    true
    (s.Trace.minor_words >= 3000 && s.Trace.minor_words <= 3100);
  quiet ()

(* Within one domain the GC counters are monotone, so the deltas of
   nested child spans can sum to at most their enclosing parent's. *)
let test_children_bounded_by_parent =
  QCheck.Test.make ~count:50 ~name:"child span deltas sum <= parent"
    QCheck.(list_of_size Gen.(1 -- 6) (100 -- 2_000))
    (fun sizes ->
      quiet ();
      Trace.enable ();
      let _ =
        Trace.with_span "parent" (fun () ->
            List.iteri
              (fun i n ->
                ignore
                  (Trace.with_span
                     (Printf.sprintf "child.%d" i)
                     (fun () -> churn n)))
              sizes)
      in
      Trace.disable ();
      let spans = Trace.spans () in
      let parent =
        List.find (fun s -> s.Trace.name = "parent") spans
      in
      let children =
        List.filter (fun s -> s.Trace.depth = 1) spans
      in
      let sum f = List.fold_left (fun a s -> a + f s) 0 children in
      let ok =
        List.length children = List.length sizes
        && sum (fun s -> s.Trace.minor_words) <= parent.Trace.minor_words
        && sum (fun s -> s.Trace.major_words) <= parent.Trace.major_words
        && sum (fun s -> s.Trace.minor_collections)
           <= parent.Trace.minor_collections
        && sum (fun s -> s.Trace.major_collections)
           <= parent.Trace.major_collections
        && List.for_all (fun s -> s.Trace.minor_words >= 0) spans
      in
      quiet ();
      ok)

(* ------------------------------------------------------------------ *)
(* Process-level sampling                                               *)
(* ------------------------------------------------------------------ *)

let test_process_sample () =
  let a = Resource.sample_process () in
  Alcotest.(check bool) "rss positive" true (a.Resource.rss_bytes > 0);
  Alcotest.(check bool) "peak >= current" true
    (a.Resource.peak_rss_bytes >= a.Resource.rss_bytes);
  Alcotest.(check bool) "heap words positive" true
    (a.Resource.heap_words > 0);
  Alcotest.(check bool) "top heap >= heap" true
    (a.Resource.p_top_heap_words >= 0);
  ignore (churn 10_000);
  let b = Resource.sample_process () in
  (* cumulative GC totals never go backwards between two samples *)
  Alcotest.(check bool) "minor words monotone" true
    (b.Resource.p_minor_words >= a.Resource.p_minor_words);
  Alcotest.(check bool) "major words monotone" true
    (b.Resource.p_major_words >= a.Resource.p_major_words);
  Alcotest.(check bool) "minor collections monotone" true
    (b.Resource.p_minor_collections >= a.Resource.p_minor_collections);
  Alcotest.(check bool) "peak monotone" true
    (b.Resource.peak_rss_bytes >= a.Resource.peak_rss_bytes)

let test_gauges_in_exposition () =
  quiet ();
  Counters.enable ();
  let payload = E.render () in
  Counters.disable ();
  let fams =
    match E.parse payload with
    | Ok f -> f
    | Error m -> Alcotest.fail ("scrape does not parse: " ^ m)
  in
  let gauge name =
    match E.find fams name with
    | Some { E.fam_kind = E.Gauge; _ } -> E.value fams name
    | Some _ -> Alcotest.fail (name ^ " is not a gauge")
    | None -> Alcotest.fail (name ^ " missing from scrape")
  in
  let counter name =
    match E.find fams name with
    | Some { E.fam_kind = E.Counter; _ } -> E.value fams name
    | Some _ -> Alcotest.fail (name ^ " is not a counter")
    | None -> Alcotest.fail (name ^ " missing from scrape")
  in
  Alcotest.(check bool) "live rss gauge" true
    (gauge "ccsched_process_resident_memory_bytes" > Some 0.);
  Alcotest.(check bool) "peak >= rss in the same scrape" true
    (gauge "ccsched_process_peak_resident_memory_bytes"
    >= gauge "ccsched_process_resident_memory_bytes");
  Alcotest.(check bool) "heap gauge" true
    (gauge "ccsched_gc_heap_words" > Some 0.);
  Alcotest.(check bool) "minor words counter" true
    (counter "ccsched_gc_minor_words" >= Some 0.);
  Alcotest.(check bool) "collections counter" true
    (counter "ccsched_gc_minor_collections" >= Some 0.);
  quiet ()

(* ------------------------------------------------------------------ *)
(* Rollup JSON                                                          *)
(* ------------------------------------------------------------------ *)

let test_rollup_json () =
  quiet ();
  Trace.enable ();
  ignore (Trace.with_span "phase.one" (fun () -> churn 1_000));
  ignore (Trace.with_span "phase.one" (fun () -> churn 1_000));
  ignore (Trace.with_span "phase.two" (fun () -> churn 1_000));
  Trace.disable ();
  let json = Resource.rollup_json () in
  match Obs.Json.parse json with
  | Error m -> Alcotest.fail ("rollup is not valid JSON: " ^ m)
  | Ok j ->
      let spans =
        Option.bind (Obs.Json.member "spans" j) Obs.Json.to_list
        |> Option.value ~default:[]
      in
      let name s =
        Option.bind (Obs.Json.member "span" s) Obs.Json.to_str
      in
      Alcotest.(check (list (option string)))
        "rolled up by name, sorted"
        [ Some "phase.one"; Some "phase.two" ]
        (List.map name spans);
      let count s =
        Option.bind (Obs.Json.member "count" s) Obs.Json.to_int
      in
      Alcotest.(check (list (option int)))
        "counts" [ Some 2; Some 1 ] (List.map count spans);
      Alcotest.(check bool) "has process block" true
        (Obs.Json.member "process" j <> None);
      quiet ()

(* ------------------------------------------------------------------ *)
(* Golden byte-identity: fig7 on mesh-2x4 with probes live              *)
(* ------------------------------------------------------------------ *)

(* From test_golden_signatures.ml — the compacted best schedule must
   stay byte-identical with resource attribution enabled, exactly as
   test_obs.ml pins it for wall-clock tracing. *)
let fig7_mesh2x4_best =
  "6;1@0;3@4;3@1;4@4;5@4;1@5;2@2;6@1;3@2;3@5;4@2;5@5;6@4;5@2;2@0;3@0;2@1;1@4;5@0"

let test_golden_with_probes () =
  let g =
    match Dataflow.Io.read_file ~path:"../data/fig7.csdfg" with
    | Ok g -> g
    | Error e -> Alcotest.fail (Dataflow.Io.error_to_string e)
  in
  let topo = Topology.mesh ~rows:2 ~cols:4 in
  quiet ();
  Trace.enable ();
  let r = Compaction.run_on ~validate:false g topo in
  Trace.disable ();
  Alcotest.(check string)
    "schedule byte-identical with resource probes on" fig7_mesh2x4_best
    (Schedule.signature r.Compaction.best);
  (* the pipeline's own spans carry the allocation *)
  let agg = Resource.aggregate () in
  let rollup name = List.assoc_opt name agg in
  Alcotest.(check bool) "compaction.run attributed" true
    (match rollup "compaction.run" with
    | Some ru -> ru.Resource.r_count = 1 && ru.Resource.r_minor_words > 0
    | None -> false);
  Alcotest.(check bool) "startup.run attributed" true
    (rollup "startup.run" <> None);
  Alcotest.(check bool) "per-pass spans attributed" true
    (match rollup "compaction.pass" with
    | Some ru -> ru.Resource.r_count > 1
    | None -> false);
  quiet ()

let () =
  Alcotest.run "resource"
    [
      ( "fast-path",
        [
          Alcotest.test_case "disabled is a no-op" `Quick
            test_disabled_is_noop;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting structure" `Quick
            test_nesting_structure;
          Alcotest.test_case "exact minor words" `Quick test_minor_words_exact;
          QCheck_alcotest.to_alcotest test_children_bounded_by_parent;
        ] );
      ( "process",
        [
          Alcotest.test_case "sample sanity" `Quick test_process_sample;
          Alcotest.test_case "gauges in the exposition" `Quick
            test_gauges_in_exposition;
        ] );
      ( "export",
        [ Alcotest.test_case "rollup json" `Quick test_rollup_json ] );
      ( "golden",
        [
          Alcotest.test_case "byte-identical schedule" `Quick
            test_golden_with_probes;
        ] );
    ]
