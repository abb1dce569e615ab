(* Portfolio compaction: the diversification schedule and its range,
   the (length, signature, index) result rule, the guarantee against
   plain Compaction.run on the suite (never longer; k = 1 is
   Compaction.run), invariance of the winner in the domain count, the
   search spans, the wall-clock budget, the autotune preset's signature
   tie-break after polish, and byte-identity of the sharded exhaustive
   solver.  These pin the determinism contract the bench regression
   gate relies on. *)

module Csdfg = Dataflow.Csdfg
module Schedule = Cyclo.Schedule
module Comm = Cyclo.Comm
module Compaction = Cyclo.Compaction
module Portfolio = Cyclo.Portfolio
module Exhaustive = Cyclo.Exhaustive
module Remap = Cyclo.Remap

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let sig_of r = Schedule.signature (Portfolio.best r)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

(* ------------------------------------------------------------------ *)
(* Diversification schedule                                             *)
(* ------------------------------------------------------------------ *)

let test_searches () =
  let s = Portfolio.searches ~k:Portfolio.max_k in
  check_int "max_k entries" 8 (List.length s);
  let nth i = List.nth s i in
  check_bool "search 0 is the Compaction.run default" true
    ((nth 0).Portfolio.mode = Remap.With_relaxation
    && (nth 0).Portfolio.scoring = Remap.Pressure_first
    && (nth 0).Portfolio.order = Remap.Forward);
  check_bool "indices 0-3 cover all four (mode, scoring) pairs" true
    (List.length
       (List.sort_uniq compare
          (List.map
             (fun s -> (s.Portfolio.mode, s.Portfolio.scoring))
             (List.filteri (fun i _ -> i < 4) s)))
    = 4);
  check_bool "order flips to reverse at index 4" true
    ((nth 4).Portfolio.order = Remap.Reverse);
  check_int "all eight searches are distinct" 8
    (List.length
       (List.sort_uniq compare
          (List.map
             (fun s -> (s.Portfolio.mode, s.Portfolio.scoring, s.Portfolio.order))
             s)))

(* Only eight distinct searches exist, so any other k is refused before
   any work is done. *)
let test_k_range () =
  let g = Workloads.Examples.fig7 and topo = Topology.mesh ~rows:2 ~cols:4 in
  let refused what f =
    match f () with
    | _ -> Alcotest.failf "%s was accepted" what
    | exception Invalid_argument msg ->
        check_bool (what ^ ": the message names the range") true
          (contains msg "1..8")
  in
  List.iter
    (fun k ->
      refused (Printf.sprintf "run ~k:%d" k) (fun () ->
          Portfolio.run_on ~k ~domains:1 g topo);
      refused (Printf.sprintf "searches ~k:%d" k) (fun () ->
          Portfolio.searches ~k))
    [ 0; -1; 9; max_int ];
  List.iter
    (fun k ->
      check_int
        (Printf.sprintf "k = %d runs k searches" k)
        k
        (List.length (Portfolio.run_on ~k ~domains:1 g topo).Portfolio.members))
    [ 1; 8 ]

(* ------------------------------------------------------------------ *)
(* Result rule                                                          *)
(* ------------------------------------------------------------------ *)

(* The members list must come back ranked by
   (best length, signature, search index), with the winner at its head
   — that ranking IS the determinism contract. *)
let test_result_rule () =
  let g = Workloads.Kernels.lms ~taps:4 and topo = Topology.linear_array 4 in
  let r = Portfolio.run_on ~domains:1 ~validate:false g topo in
  let keys =
    List.map
      (fun m ->
        let b = m.Portfolio.result.Compaction.best in
        ( Schedule.length b,
          Schedule.signature b,
          m.Portfolio.search.Portfolio.index ))
      r.Portfolio.members
  in
  check_bool "members ranked by (length, signature, index)" true
    (keys = List.sort compare keys);
  let win_len, win_sig, _ = List.hd (List.sort compare keys) in
  check_int "winner has the minimum length"
    win_len
    (Schedule.length (Portfolio.best r));
  check_string "winner carries the minimum key's signature" win_sig (sig_of r);
  (* the tie-break is exercised for real: several members tie at the
     winning length with more than one distinct schedule *)
  let at_min = List.filter (fun (l, _, _) -> l = win_len) keys in
  check_bool "at least two members tie at the winning length" true
    (List.length at_min >= 2);
  List.iter
    (fun (_, s, _) ->
      check_bool "winner signature is lexicographically minimal among ties"
        true
        (String.compare win_sig s <= 0))
    at_min

(* ------------------------------------------------------------------ *)
(* Against plain Compaction.run on the suite                            *)
(* ------------------------------------------------------------------ *)

(* The 20 suite loops on eight machines, each with Compaction.run's best
   schedule, which is the portfolio's search 0. *)
let suite_machines =
  [
    "linear:4";
    "linear:8";
    "mesh:2x2";
    "mesh:2x4";
    "ring:8";
    "complete:8";
    "hypercube:3";
    "mesh:4x4";
  ]

let suite =
  lazy
    (List.concat_map
       (fun spec ->
         let comm = Comm.of_topology (Result.get_ok (Topology.of_spec spec)) in
         List.map
           (fun (name, g) ->
             ( name ^ "/" ^ spec,
               g,
               comm,
               (Compaction.run ~validate:false g comm).Compaction.best ))
           (Workloads.Suite.all ()))
       suite_machines)

(* MD5 of the "cell;length;signature" lines of the default portfolio's
   winners over [suite]: the winners of every search driven to its
   natural end (or the lower bound) on one domain. *)
let suite_winners_digest = "f0573b3af02a6c2862cf0c21a83a5a54"

let digest lines = Digest.to_hex (Digest.string (String.concat "\n" lines))

(* Every search runs to its end or the lower bound, and search 0 is
   Compaction.run, so the winner can never be longer than it. *)
let suite_winners ~domains =
  List.map
    (fun (cell, g, comm, plain) ->
      let w = Portfolio.best (Portfolio.run ?domains ~validate:false g comm) in
      if Schedule.length w > Schedule.length plain then
        Alcotest.failf "%s: portfolio %d is longer than Compaction.run %d" cell
          (Schedule.length w) (Schedule.length plain);
      Printf.sprintf "%s;%d;%s" cell (Schedule.length w) (Schedule.signature w))
    (Lazy.force suite)

let test_never_longer_than_compaction () =
  check_string "winners on the default domain count" suite_winners_digest
    (digest (suite_winners ~domains:None))

let test_suite_winners_one_domain () =
  check_string "winners on one domain" suite_winners_digest
    (digest (suite_winners ~domains:(Some 1)))

let test_k1_matches_compaction () =
  List.iter
    (fun (cell, g, comm, plain) ->
      let p = Portfolio.run ~k:1 ~domains:1 ~validate:false g comm in
      check_string
        (cell ^ ": k=1 winner is the plain Compaction.run schedule")
        (Schedule.signature plain) (sig_of p))
    (Lazy.force suite)

(* A search stops once its best reaches the lower bound, at the pass
   that reached it; Compaction.run itself keeps going (on fig7/linear:4
   search 0 reaches the bound 6 at pass 60, Compaction.run stops at 65). *)
let test_stops_at_lower_bound () =
  let g = Workloads.Examples.fig7 and topo = Topology.linear_array 4 in
  let r = Portfolio.run_on ~k:1 ~domains:1 ~validate:false g topo in
  let c = Compaction.run_on ~validate:false g topo in
  let lb = r.Portfolio.lower_bound in
  check_int "the winner is at the lower bound" lb
    (Schedule.length (Portfolio.best r));
  let reached =
    List.find (fun e -> e.Compaction.length <= lb) c.Compaction.trace
  in
  check_int "search 0 stopped at the pass that reached it"
    reached.Compaction.pass r.Portfolio.winner.Portfolio.passes;
  check_bool "Compaction.run ran past it" true
    (List.length c.Compaction.trace > reached.Compaction.pass)

(* ------------------------------------------------------------------ *)
(* Winner invariance in the domain count                                *)
(* ------------------------------------------------------------------ *)

let small_params =
  { Workloads.Random_gen.default with nodes = 6; feedback_edges = 2 }

let arch_of_seed =
  let archs =
    [|
      Topology.linear_array 4;
      Topology.ring 4;
      Topology.mesh ~rows:2 ~cols:2;
      Topology.complete 3;
    |]
  in
  fun seed -> archs.(abs seed mod Array.length archs)

let prop_domain_invariance =
  QCheck.Test.make ~count:25
    ~name:"portfolio winner is invariant in the domain count"
    QCheck.(pair (int_range 0 5_000) (int_range 0 5_000))
    (fun (gseed, aseed) ->
      let g =
        Workloads.Random_gen.generate_connected ~params:small_params
          ~seed:gseed ()
      in
      let topo = arch_of_seed aseed in
      let run d = Portfolio.run_on ~domains:d ~validate:false g topo in
      let reference = sig_of (run 1) in
      List.for_all (fun d -> String.equal reference (sig_of (run d))) [ 2; 5 ])

let prop_winner_legal_and_bounded =
  QCheck.Test.make ~count:25 ~name:"portfolio winner is legal and <= startup"
    QCheck.(int_range 0 5_000)
    (fun seed ->
      let g =
        Workloads.Random_gen.generate_connected ~params:small_params ~seed ()
      in
      let topo = arch_of_seed seed in
      let r = Portfolio.run_on ~validate:false g topo in
      Cyclo.Validator.assert_legal (Portfolio.best r);
      Schedule.length (Portfolio.best r)
      <= Schedule.length (Cyclo.Startup.run_on g topo)
      && Schedule.length (Portfolio.best r) >= r.Portfolio.lower_bound)

(* ------------------------------------------------------------------ *)
(* Observability                                                        *)
(* ------------------------------------------------------------------ *)

let test_counters_and_spans () =
  Obs.Trace.enable ();
  let r =
    Portfolio.run_on ~validate:false Workloads.Filters.elliptic
      (Topology.mesh ~rows:4 ~cols:4)
  in
  Obs.Trace.disable ();
  let searched =
    List.filter_map
      (fun s ->
        if String.equal s.Obs.Trace.name "portfolio.search" then
          List.assoc_opt "search" s.Obs.Trace.args
        else None)
      (Obs.Trace.spans ())
  in
  Obs.Trace.reset ();
  check_bool "one portfolio.search span per search" true
    (List.sort compare searched
    = List.sort compare (List.init r.Portfolio.k string_of_int));
  let kind name =
    List.find_map
      (fun (n, k, _) -> if String.equal n name then Some k else None)
      (Obs.Counters.snapshot ())
  in
  check_bool "compaction.best_length registered as a gauge" true
    (kind "compaction.best_length" = Some Obs.Counters.Gauge);
  (* counters register at module init, so the module must be linked
     before its names can be classified *)
  ignore Machine.Simulator.execute;
  check_bool "simulator.max_link_backlog registered as a gauge" true
    (kind "simulator.max_link_backlog" = Some Obs.Counters.Gauge)

(* ------------------------------------------------------------------ *)
(* Wall-clock budget                                                    *)
(* ------------------------------------------------------------------ *)

(* A zero budget retires every search before its first pass, so the
   winner is the shared start-up schedule whatever the domain count,
   and polish leaves a timed-out portfolio alone. *)
let test_zero_time_budget () =
  let g = Workloads.Filters.elliptic in
  let comm = Comm.of_topology (Topology.mesh ~rows:4 ~cols:4) in
  let startup = Cyclo.Startup.run g comm in
  List.iter
    (fun domains ->
      let r = Portfolio.run ~domains ~time_budget:0. g comm in
      let label what = Printf.sprintf "%s (domains=%d)" what domains in
      check_bool (label "timed out") true r.Portfolio.timed_out;
      check_int (label "winner has the start-up length")
        (Schedule.length startup)
        (Schedule.length (Portfolio.best r));
      check_string (label "winner is the start-up schedule")
        (Schedule.signature startup) (sig_of r);
      check_bool (label "winner is legal") true
        (Cyclo.Validator.is_legal (Portfolio.best r));
      check_bool (label "polish returns it unchanged") true
        (Portfolio.polish r == r))
    [ 1; 2 ]

(* ------------------------------------------------------------------ *)
(* Autotune preset                                                      *)
(* ------------------------------------------------------------------ *)

(* `ccsched autotune`: the four (mode, scoring) searches, each result
   polished by local search. *)
let autotune ?time_budget ~domains g comm =
  Portfolio.polish (Portfolio.run ~k:4 ~domains ?time_budget g comm)

(* Recompute what the preset computes per configuration
   (Compaction.run + Refine.polish) and check the published winner is
   the (length, signature) minimum — on a cell where two configurations
   tie at the minimum length with distinct schedules, so the signature
   tie-break is what decides. *)
let test_autotune_signature_tiebreak () =
  let g = Workloads.Kernels.lms ~taps:4 and topo = Topology.linear_array 4 in
  let comm = Comm.of_topology topo in
  let runs =
    List.map
      (fun (mode, scoring) ->
        let p =
          Cyclo.Refine.polish
            (Compaction.run ~mode ~scoring ~validate:false g comm)
        in
        (Schedule.length p, Schedule.signature p))
      [
        (Remap.With_relaxation, Remap.Pressure_first);
        (Remap.With_relaxation, Remap.Earliest_step);
        (Remap.Without_relaxation, Remap.Pressure_first);
        (Remap.Without_relaxation, Remap.Earliest_step);
      ]
  in
  let exp_len, exp_sig = List.hd (List.sort compare runs) in
  let ties = List.filter (fun (l, _) -> l = exp_len) runs in
  check_bool "the cell really ties at the minimum length" true
    (List.length ties >= 2);
  check_bool "the tie has distinct schedules" true
    (List.length (List.sort_uniq compare (List.map snd ties)) >= 2);
  List.iter
    (fun domains ->
      let r = autotune ~domains g comm in
      check_int "winner length is the minimum" exp_len
        (Schedule.length (Portfolio.best r));
      check_string
        (Printf.sprintf
           "winner (domains=%d) is the lexicographically smallest signature"
           domains)
        exp_sig (sig_of r))
    [ 1; 2 ]

let test_autotune_budget_parallel () =
  let g = Workloads.Filters.elliptic in
  let comm = Comm.of_topology (Topology.mesh ~rows:4 ~cols:4) in
  let r = autotune ~domains:2 ~time_budget:0. g comm in
  check_bool "zero budget retires every search" true r.Portfolio.timed_out;
  let r0 = autotune ~domains:1 ~time_budget:0. g comm in
  check_string "same deadline semantics with and without domains" (sig_of r0)
    (sig_of r)

(* ------------------------------------------------------------------ *)
(* Sharded exhaustive search                                            *)
(* ------------------------------------------------------------------ *)

let test_sharded_exhaustive_byte_identical () =
  let params =
    { Workloads.Random_gen.default with nodes = 5; feedback_edges = 2 }
  in
  List.iter
    (fun seed ->
      let g = Workloads.Random_gen.generate_connected ~params ~seed () in
      List.iter
        (fun np ->
          let comm = Comm.of_topology (Topology.complete np) in
          let reference =
            match Exhaustive.solve g comm with
            | Exhaustive.Optimal s -> s
            | Exhaustive.Gave_up _ ->
                Alcotest.fail "sequential solver gave up on a tiny instance"
          in
          List.iter
            (fun shards ->
              match Exhaustive.solve ~shards ~domains:2 g comm with
              | Exhaustive.Optimal s ->
                  check_string
                    (Printf.sprintf "seed %d np %d shards %d" seed np shards)
                    (Schedule.signature reference)
                    (Schedule.signature s)
              | Exhaustive.Gave_up _ ->
                  Alcotest.fail "sharded solver gave up on a tiny instance")
            [ 2; 3; 5 ])
        [ 2; 3 ])
    [ 1; 2; 3; 4; 5 ]

let () =
  Alcotest.run "portfolio"
    [
      ( "portfolio",
        [
          Alcotest.test_case "diversification schedule" `Quick test_searches;
          Alcotest.test_case "k outside 1..8 is refused" `Quick test_k_range;
          Alcotest.test_case "result rule" `Quick test_result_rule;
          Alcotest.test_case "k=1 = Compaction.run" `Quick
            test_k1_matches_compaction;
          Alcotest.test_case "never longer than Compaction.run" `Quick
            test_never_longer_than_compaction;
          Alcotest.test_case "suite winners on one domain" `Quick
            test_suite_winners_one_domain;
          Alcotest.test_case "a search stops at the lower bound" `Quick
            test_stops_at_lower_bound;
          Alcotest.test_case "search spans and counter kinds" `Quick
            test_counters_and_spans;
          QCheck_alcotest.to_alcotest prop_domain_invariance;
          QCheck_alcotest.to_alcotest prop_winner_legal_and_bounded;
          Alcotest.test_case "zero time budget" `Quick test_zero_time_budget;
        ] );
      ( "autotune",
        [
          Alcotest.test_case "signature tie-break" `Quick
            test_autotune_signature_tiebreak;
          Alcotest.test_case "shared deadline over domains" `Quick
            test_autotune_budget_parallel;
        ] );
      ( "exhaustive-shards",
        [
          Alcotest.test_case "byte-identical to sequential" `Quick
            test_sharded_exhaustive_byte_identical;
        ] );
    ]
