(* Bench regression gate over BENCH_history.jsonl.

     dune exec bench/check_regression.exe
     dune exec bench/check_regression.exe -- --history FILE --tolerance 15

   Every record is schema-validated ("ccsched-bench-history/1"); then
   the newest record is compared against history:

   - schedule lengths (startup and best) and pass counts are exact and
     machine-independent, so any (workload, topology) whose best or
     startup length grew versus the most recent earlier record is a hard
     failure;
   - ns/run figures are only meaningful on one machine at one quota, so
     they are compared against the most recent earlier record with the
     same host and the same --quick flag (if any), failing beyond the
     tolerance (default 15%).  Because a shared hostname does not pin
     the hardware (containerised runners all report one name over
     varying VMs), the comparison is normalised by the records' frozen
     calibration loops when both carry one, and skipped when only one
     side does;
   - scale cells (layered DAGs at 10^4/10^5 nodes): startup length is
     deterministic and must not grow, peak RSS must stay under an
     absolute per-cell ceiling, and ns/node is held to the same-host
     tolerance like ns/run.

   Exit codes: 0 ok / nothing to compare, 1 regression, 2 bad history. *)

let schema_id = "ccsched-bench-history/1"

let die_usage () =
  prerr_endline
    "usage: check_regression [--history FILE.jsonl] [--tolerance PCT]";
  exit 2

let rec parse_args history tolerance = function
  | [] -> (history, tolerance)
  | "--history" :: path :: rest -> parse_args path tolerance rest
  | "--tolerance" :: pct :: rest -> (
      match float_of_string_opt pct with
      | Some t when t >= 0. -> parse_args history t rest
      | _ -> die_usage ())
  | _ -> die_usage ()

type pf_cell = {
  seq_passes : int;
  pf_passes : int;
  winner_len : int;
  winner_match : bool;
}

type portfolio = {
  aggregate_speedup : float;
  all_match : bool;
  cells : ((string * string) * pf_cell) list;
}

type service = {
  hit_speedup_p50 : float;
  hit_rate : float;
  warm_speedup : float option;
      (* miss p50 / warm-restart p50; absent in records predating the
         warm-restart journal *)
  cells_p50 : (string * float) list;  (* cell name -> p50 ns *)
}

type telemetry = {
  log_off_ns : float;
  log_on_ns : float;
  overhead : float;  (* log_on / log_off on the engine hit path *)
}

type scale_cell = {
  sc_nodes : int;
  sc_ns_per_node : float;
  sc_startup_len : int;
  sc_startup_peak_rss : float;  (* bytes; covers generation too (monotone) *)
}

(* Absolute peak-RSS ceiling per scale cell, in bytes.  Unlike the
   relative ns/run comparisons this is a hard budget: the scale tier
   exists to catch the occupancy index or the sweep going superlinear,
   and a quadratic structure shows up in memory long before any same-
   host timing baseline exists.  Roughly 4x the measured footprint. *)
let rss_ceiling_bytes nodes =
  if nodes <= 10_000 then 256. *. 1024. *. 1024. else 1024. *. 1024. *. 1024.

type record = {
  line : int;
  host : string;
  quick : bool;
  calibration : float option;
      (* frozen-loop machine-speed figure; absent in older records.
         ns comparisons are scaled by candidate/baseline calibration —
         the hostname alone does not pin the hardware (containerised
         runners all report the same name over varying VMs). *)
  benchmarks : (string * float) list;
  schedules : ((string * string) * (int * int * int)) list;
      (* (workload, topology) -> (startup, best, passes) *)
  portfolio : portfolio option;
      (* absent in records predating the portfolio pair *)
  service : service option;
      (* absent in records predating the scheduling service *)
  telemetry : telemetry option;
      (* absent in records predating the logging overhead cell *)
  scale : (string * scale_cell) list option;
      (* absent in records predating the scale tier *)
}

let malformed line what =
  Printf.eprintf "check_regression: history line %d: %s\n" line what;
  exit 2

let field line json name conv =
  match Option.bind (Obs.Json.member name json) conv with
  | Some v -> v
  | None -> malformed line (Printf.sprintf "missing or malformed %S" name)

let validate line json =
  (match Option.bind (Obs.Json.member "schema" json) Obs.Json.to_str with
  | Some s when s = schema_id -> ()
  | Some s -> malformed line (Printf.sprintf "unknown schema %S" s)
  | None -> malformed line "missing \"schema\"");
  ignore (field line json "unix_time" Obs.Json.to_num);
  let quick =
    match Obs.Json.member "quick" json with
    | Some (Obs.Json.Bool b) -> b
    | _ -> malformed line "missing or malformed \"quick\""
  in
  let benchmarks =
    field line json "benchmarks" Obs.Json.to_list
    |> List.map (fun item ->
           ( field line item "name" Obs.Json.to_str,
             field line item "ns_per_run" Obs.Json.to_num ))
  and schedules =
    field line json "schedules" Obs.Json.to_list
    |> List.map (fun item ->
           ( ( field line item "workload" Obs.Json.to_str,
               field line item "topology" Obs.Json.to_str ),
             ( field line item "startup" Obs.Json.to_int,
               field line item "best" Obs.Json.to_int,
               field line item "passes" Obs.Json.to_int ) ))
  in
  let portfolio =
    match Obs.Json.member "portfolio" json with
    | None -> None
    | Some pf ->
        let bool_field item name =
          match Obs.Json.member name item with
          | Some (Obs.Json.Bool b) -> b
          | _ -> malformed line (Printf.sprintf "missing or malformed %S" name)
        in
        Some
          {
            aggregate_speedup = field line pf "aggregate_speedup" Obs.Json.to_num;
            all_match = bool_field pf "winner_match";
            cells =
              field line pf "cells" Obs.Json.to_list
              |> List.map (fun item ->
                     ( ( field line item "workload" Obs.Json.to_str,
                         field line item "topology" Obs.Json.to_str ),
                       {
                         seq_passes = field line item "seq_passes" Obs.Json.to_int;
                         pf_passes =
                           field line item "portfolio_passes" Obs.Json.to_int;
                         winner_len = field line item "winner_len" Obs.Json.to_int;
                         winner_match = bool_field item "winner_match";
                       } ));
          }
  in
  let service =
    match Obs.Json.member "service" json with
    | None -> None
    | Some s ->
        Some
          {
            hit_speedup_p50 = field line s "hit_speedup_p50" Obs.Json.to_num;
            hit_rate = field line s "hit_rate" Obs.Json.to_num;
            warm_speedup =
              Option.bind
                (Obs.Json.member "warm_restart_speedup" s)
                Obs.Json.to_num;
            cells_p50 =
              field line s "cells" Obs.Json.to_list
              |> List.map (fun item ->
                     ( field line item "name" Obs.Json.to_str,
                       field line item "p50_ns" Obs.Json.to_num ));
          }
  in
  let telemetry =
    match Obs.Json.member "telemetry" json with
    | None -> None
    | Some t ->
        Some
          {
            log_off_ns = field line t "log_off_ns" Obs.Json.to_num;
            log_on_ns = field line t "log_on_ns" Obs.Json.to_num;
            overhead = field line t "overhead" Obs.Json.to_num;
          }
  in
  let scale =
    match Obs.Json.member "scale" json with
    | None -> None
    | Some _ ->
        Some
          (field line json "scale" Obs.Json.to_list
          |> List.map (fun item ->
                 ( field line item "name" Obs.Json.to_str,
                   {
                     sc_nodes = field line item "nodes" Obs.Json.to_int;
                     sc_ns_per_node =
                       field line item "ns_per_node" Obs.Json.to_num;
                     sc_startup_len =
                       field line item "startup_len" Obs.Json.to_int;
                     sc_startup_peak_rss =
                       field line item "startup_peak_rss_bytes"
                         Obs.Json.to_num;
                   } )))
  in
  let calibration =
    match Obs.Json.member "calibration_ns" json with
    | None -> None
    | Some j -> (
        match Obs.Json.to_num j with
        | Some n when n > 0. -> Some n
        | _ -> malformed line "malformed \"calibration_ns\"")
  in
  { line; host = field line json "host" Obs.Json.to_str; quick; calibration;
    benchmarks; schedules; portfolio; service; telemetry; scale }

let load path =
  let ic =
    try open_in path
    with Sys_error msg ->
      Printf.eprintf "check_regression: %s\n" msg;
      exit 2
  in
  let records = ref [] in
  let line_no = ref 0 in
  (try
     while true do
       let line = input_line ic in
       incr line_no;
       if String.trim line <> "" then
         match Obs.Json.parse line with
         | Ok json -> records := validate !line_no json :: !records
         | Error msg -> malformed !line_no msg
     done
   with End_of_file -> close_in ic);
  List.rev !records

(* Hardware-speed ratio between two records: [Some 1.] when neither
   carries a calibration figure (legacy vs legacy — the old absolute
   comparison), the calibration quotient when both do, [None] when only
   one does — then the records are from incomparable measurement eras
   and ns checks are skipped rather than comparing raw nanoseconds
   across unknown hardware. *)
let speed_ratio candidate baseline =
  match (candidate.calibration, baseline.calibration) with
  | Some a, Some b -> Some (a /. b)
  | None, None -> Some 1.
  | _ -> None

let () =
  let history, tolerance =
    parse_args "BENCH_history.jsonl" 15. (List.tl (Array.to_list Sys.argv))
  in
  let records = load history in
  Printf.printf "%s: %d valid record(s)\n" history (List.length records);
  match List.rev records with
  | [] | [ _ ] ->
      print_endline "nothing to compare against; gate passes trivially"
  | candidate :: earlier ->
      let failures = ref [] in
      let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
      (* schedule lengths: deterministic, compared against the most
         recent earlier record that has the same (workload, topology) *)
      List.iter
        (fun (key, (startup, best, passes)) ->
          match
            List.find_map (fun r -> List.assoc_opt key r.schedules) earlier
          with
          | None -> ()
          | Some (startup0, best0, passes0) ->
              let wn, tn = key in
              if best > best0 then
                fail "%s/%s: best length %d -> %d (regression)" wn tn best0
                  best
              else if best < best0 then
                Printf.printf "%s/%s: best length improved %d -> %d\n" wn tn
                  best0 best;
              if startup > startup0 then
                fail "%s/%s: startup length %d -> %d (regression)" wn tn
                  startup0 startup;
              if passes <> passes0 then
                Printf.printf "%s/%s: pass count %d -> %d\n" wn tn passes0
                  passes)
        candidate.schedules;
      (* portfolio pair: winner identity and pass counts are exact.  Both
         variants run the same searches, on one domain and on the
         default count, so a winner or a pass total that differs breaks
         the determinism contract outright, and a portfolio slower than
         its one-domain run has lost the point of its domains. *)
      (match candidate.portfolio with
      | None -> print_endline "no portfolio record; skipping portfolio gate"
      | Some pf ->
          Printf.printf "portfolio aggregate speedup %.2fx, winners %s\n"
            pf.aggregate_speedup
            (if pf.all_match then "byte-identical" else "DIVERGED");
          if not pf.all_match then
            fail "portfolio: winner differs from its one-domain run";
          if pf.aggregate_speedup < 1.0 then
            fail "portfolio: aggregate speedup %.2fx < 1.00x"
              pf.aggregate_speedup;
          List.iter
            (fun ((wn, tn), c) ->
              if not c.winner_match then
                fail "portfolio %s/%s: winner signature diverged" wn tn;
              if c.pf_passes <> c.seq_passes then
                fail "portfolio %s/%s: %d passes <> %d on one domain" wn tn
                  c.pf_passes c.seq_passes;
              match
                List.find_map
                  (fun r ->
                    Option.bind r.portfolio (fun p ->
                        List.assoc_opt (wn, tn) p.cells))
                  earlier
              with
              | Some earlier_cell when c.winner_len > earlier_cell.winner_len
                ->
                  fail "portfolio %s/%s: winner length %d -> %d (regression)"
                    wn tn earlier_cell.winner_len c.winner_len
              | Some _ | None -> ())
            pf.cells);
      (* scheduling service: the cache contract is absolute, not
         relative to history — a hit is one lookup plus reply bytes, a
         miss re-runs the compaction search, so a hit p50 within 10x of
         the miss p50 means the cache is broken (or the key space
         degenerated to misses). *)
      (match candidate.service with
      | None -> print_endline "no service record; skipping service gate"
      | Some svc ->
          Printf.printf "service hit rate %.2f, hit p50 %.1fx below miss p50\n"
            svc.hit_rate svc.hit_speedup_p50;
          if svc.hit_speedup_p50 < 10.0 then
            fail "service: hit p50 only %.1fx below miss p50 (need >= 10x)"
              svc.hit_speedup_p50;
          if svc.hit_rate <= 0.0 || svc.hit_rate > 1.0 then
            fail "service: hit rate %.2f out of (0, 1]" svc.hit_rate;
          List.iter
            (fun name ->
              if not (List.mem_assoc name svc.cells_p50) then
                fail "service: missing cell %S" name)
            [ "service_hit"; "service_miss"; "service_replan" ];
          (* warm restart: journal replay re-serves cached bytes without
             recomputing, so restart-to-answer must stay well below a
             cold miss — an absolute bound like the hit gate above,
             skipped only for records predating the journal *)
          (match svc.warm_speedup with
          | None ->
              print_endline
                "no warm-restart record; skipping warm-restart gate"
          | Some w ->
              Printf.printf "service warm restart p50 %.1fx below miss p50\n"
                w;
              if w < 5.0 then
                fail
                  "service: warm restart p50 only %.1fx below miss p50 \
                   (need >= 5x)"
                  w;
              if not (List.mem_assoc "service_warm_restart" svc.cells_p50)
              then fail "service: missing cell %S" "service_warm_restart"));
      (* telemetry: the logging-off discipline is one atomic load, so
         the logging-on hit path must stay within 5% of logging-off —
         an absolute bound, not a comparison against history, because
         the overhead ratio cancels out the machine. *)
      (match candidate.telemetry with
      | None -> print_endline "no telemetry record; skipping telemetry gate"
      | Some tel ->
          Printf.printf
            "telemetry hit path: log-off %.1f ns, log-on %.1f ns (%.3fx)\n"
            tel.log_off_ns tel.log_on_ns tel.overhead;
          if tel.log_off_ns <= 0. || tel.log_on_ns <= 0. then
            fail "telemetry: non-positive timing (off %.1f ns, on %.1f ns)"
              tel.log_off_ns tel.log_on_ns;
          if tel.overhead > 1.05 then
            fail "telemetry: logging overhead %.3fx > 1.05x" tel.overhead);
      (* scale tier: startup length is deterministic (generator seed and
         sweep are both fixed), so growth against the most recent record
         carrying the same cell is a hard failure; peak RSS hits an
         absolute ceiling; ns/node compares same-host, same-quota like
         ns/run.  These bound how the scheduler *scales*, which the small
         shipped workloads above cannot see. *)
      (match candidate.scale with
      | None -> print_endline "no scale record; skipping scale gate"
      | Some cells ->
          List.iter
            (fun (name, c) ->
              Printf.printf
                "scale %s: %.1f ns/node, startup len %d, peak rss %.1f MB\n"
                name c.sc_ns_per_node c.sc_startup_len
                (c.sc_startup_peak_rss /. 1048576.);
              let ceiling = rss_ceiling_bytes c.sc_nodes in
              if c.sc_startup_peak_rss > ceiling then
                fail "scale %s: peak rss %.1f MB over the %.0f MB ceiling"
                  name
                  (c.sc_startup_peak_rss /. 1048576.)
                  (ceiling /. 1048576.);
              match
                List.find_map
                  (fun r -> Option.bind r.scale (List.assoc_opt name))
                  earlier
              with
              | None -> ()
              | Some c0 ->
                  if c.sc_startup_len > c0.sc_startup_len then
                    fail "scale %s: startup length %d -> %d (regression)" name
                      c0.sc_startup_len c.sc_startup_len
                  else if c.sc_startup_len < c0.sc_startup_len then
                    Printf.printf "scale %s: startup length improved %d -> %d\n"
                      name c0.sc_startup_len c.sc_startup_len)
            cells;
          (match
             List.find_opt
               (fun r ->
                 r.host = candidate.host && r.quick = candidate.quick
                 && r.scale <> None)
               earlier
           with
          | None ->
              Printf.printf
                "no earlier scale record from host %S (quick=%b); skipping \
                 ns/node comparison\n"
                candidate.host candidate.quick
          | Some baseline -> (
              match speed_ratio candidate baseline with
              | None ->
                  Printf.printf
                    "scale baseline at line %d has no shared calibration; \
                     skipping ns/node comparison\n"
                    baseline.line
              | Some ratio ->
                  List.iter
                    (fun (name, c) ->
                      match
                        Option.bind baseline.scale (List.assoc_opt name)
                      with
                      | None -> ()
                      | Some c0 when c0.sc_ns_per_node <= 0. -> ()
                      | Some c0 ->
                          let expect = c0.sc_ns_per_node *. ratio in
                          let delta =
                            100. *. ((c.sc_ns_per_node /. expect) -. 1.)
                          in
                          if delta > tolerance then
                            fail
                              "scale %s: %.1f ns/node -> %.1f ns/node \
                               (%+.1f%% > %.0f%% after x%.2f calibration)"
                              name c0.sc_ns_per_node c.sc_ns_per_node delta
                              tolerance ratio
                          else if delta < -.tolerance then
                            Printf.printf
                              "scale %s: ns/node improved %+.1f%%\n" name
                              delta)
                    cells)));
      (* ns/run: same host, same quota class only *)
      (match
         List.find_opt
           (fun r -> r.host = candidate.host && r.quick = candidate.quick)
           earlier
       with
      | None ->
          Printf.printf
            "no earlier record from host %S (quick=%b); skipping ns/run \
             comparison\n"
            candidate.host candidate.quick
      | Some baseline -> (
          match speed_ratio candidate baseline with
          | None ->
              Printf.printf
                "baseline at line %d has no shared calibration; skipping \
                 ns/run comparison\n"
                baseline.line
          | Some ratio ->
              Printf.printf
                "comparing ns/run against record at line %d (tolerance \
                 %.0f%%, calibration x%.2f)\n"
                baseline.line tolerance ratio;
              List.iter
                (fun (name, ns) ->
                  match List.assoc_opt name baseline.benchmarks with
                  | None -> ()
                  | Some ns0 when ns0 <= 0. -> ()
                  | Some ns0 ->
                      let expect = ns0 *. ratio in
                      let delta = 100. *. ((ns /. expect) -. 1.) in
                      if delta > tolerance then
                        fail
                          "%s: %.1f ns -> %.1f ns (%+.1f%% > %.0f%% after \
                           x%.2f calibration)"
                          name ns0 ns delta tolerance ratio
                      else if delta < -.tolerance then
                        Printf.printf "%s: improved %+.1f%%\n" name delta)
                candidate.benchmarks));
      if !failures = [] then print_endline "bench regression gate: OK"
      else begin
        print_endline "bench regression gate: FAILED";
        List.iter (fun m -> Printf.printf "  %s\n" m) (List.rev !failures);
        exit 1
      end
