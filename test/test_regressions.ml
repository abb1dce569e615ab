(* Regression tests for four correctness fixes:

   1. [Startup.run]'s termination fuel probed communication cost at
      volume 1 and scaled by the maximum volume — wrong (too small) for
      superlinear cost models, killing legal graphs mid-schedule.
   2. [Comm.zero] / [Comm.uniform] accepted [n <= 0] and failed later
      with an unrelated error; they must validate like [Comm.custom].
   3. [Pipeline] executed the full steady-state prologue even when the
      loop runs fewer iterations than the pipeline depth, over-executing
      iterations the loop never requested (and over-counting
      [total_time] / [overhead_ratio]).
   4. [Csdfg.validate] named an offending zero-delay cycle by enumerating
      cycles, one subgraph and its components per start node below the
      cycle: 29 s for a cycle on the last two of 8,000 nodes.  One
      linear pass now checks legality and names the cycle. *)

module Csdfg = Dataflow.Csdfg
module Schedule = Cyclo.Schedule
module Comm = Cyclo.Comm
module Startup = Cyclo.Startup
module Pipeline = Cyclo.Pipeline
module Validator = Cyclo.Validator

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* 1. Superlinear communication costs must not exhaust the fuel         *)
(* ------------------------------------------------------------------ *)

let test_superlinear_cost_converges () =
  (* Quadratic congestion model: shipping 30 units costs 900 steps, far
     beyond [max_hops * max_volume] = 30 that the old bound assumed.
     The two producers land on different processors, so the consumer
     genuinely has to wait out the 900-step transfer. *)
  let g =
    Csdfg.make ~name:"quad"
      ~nodes:[ ("A", 1); ("B", 1); ("C", 1) ]
      ~edges:[ ("A", "C", 0, 30); ("B", "C", 0, 30) ]
  in
  let comm = Comm.custom ~n:2 ~name:"quadratic" (fun _ _ m -> m * m) in
  let s = Startup.run g comm in
  check_bool "legal" true (Validator.is_legal s);
  let c = Csdfg.node_of_label g "C" in
  check_bool "C waits out the quadratic transfer" true (Schedule.cb s c > 900)

let test_superlinear_cost_fixed_latency () =
  (* A constant (volume-independent) latency is the other non-linear
     shape: cost 5 at every volume.  Probing at volume 1 happens to work
     here, but the schedule must still be legal and finite. *)
  let g =
    Csdfg.make ~name:"lat"
      ~nodes:[ ("A", 1); ("B", 1); ("C", 1) ]
      ~edges:[ ("A", "C", 0, 4); ("B", "C", 0, 4) ]
  in
  let comm = Comm.custom ~n:2 ~name:"fixed-latency" (fun _ _ _ -> 5) in
  let s = Startup.run g comm in
  check_bool "legal" true (Validator.is_legal s)

(* ------------------------------------------------------------------ *)
(* 2. Constructor validation                                            *)
(* ------------------------------------------------------------------ *)

let contains msg sub =
  let n = String.length msg and m = String.length sub in
  let rec go i = i + m <= n && (String.sub msg i m = sub || go (i + 1)) in
  go 0

let raises_mentioning substring f =
  match f () with
  | exception Invalid_argument msg ->
      check_bool (substring ^ " in " ^ msg) true (contains msg substring)
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_zero_rejects_nonpositive () =
  raises_mentioning "Comm.zero" (fun () -> Comm.zero ~n:0 ~name:"z");
  raises_mentioning "Comm.zero" (fun () -> Comm.zero ~n:(-3) ~name:"z")

let test_uniform_rejects_nonpositive () =
  raises_mentioning "Comm.uniform" (fun () ->
      Comm.uniform ~n:0 ~latency:1 ~name:"u")

let test_custom_still_rejects () =
  raises_mentioning "Comm.custom" (fun () ->
      Comm.custom ~n:0 ~name:"c" (fun _ _ _ -> 0))

let test_valid_constructors_unchanged () =
  check "zero n" 3 (Comm.n_processors (Comm.zero ~n:3 ~name:"z"));
  check "uniform n" 2
    (Comm.n_processors (Comm.uniform ~n:2 ~latency:4 ~name:"u"))

(* ------------------------------------------------------------------ *)
(* 3. Prologue clamping for loops shorter than the pipeline depth       *)
(* ------------------------------------------------------------------ *)

(* A -> B -> C chain, fully retimed: r = {A: 2, B: 1, C: 0}, depth 2. *)
let chain_pipeline () =
  let original =
    Csdfg.make ~name:"chain"
      ~nodes:[ ("A", 1); ("B", 1); ("C", 1) ]
      ~edges:[ ("A", "B", 0, 1); ("B", "C", 0, 1) ]
  in
  let retiming = [| 2; 1; 0 |] and uni = Comm.zero ~n:1 ~name:"uni" in
  (* the start-up table of the retimed chain, on a schedule carrying r *)
  let table = Startup.run (Dataflow.Retiming.apply original retiming) uni in
  let kernel = ref (Schedule.empty ~retiming original uni) in
  Schedule.iter_placements
    (fun v ~cb ~pe -> kernel := Schedule.assign !kernel ~node:v ~cb ~pe)
    table;
  Pipeline.build (Schedule.set_length !kernel (Schedule.length table))

let instructions_executed p ~n =
  Pipeline.prologue_length_for p ~n + Pipeline.epilogue_length p ~n

let test_short_loop_executes_exactly_n () =
  let p = chain_pipeline () in
  check "depth" 2 p.Pipeline.depth;
  check "steady prologue" 3 (Pipeline.prologue_length p);
  (* n = 1 < depth: each of the 3 nodes must run exactly once; the
     steady prologue alone would already run A twice. *)
  check "n=1 prologue" 2 (Pipeline.prologue_length_for p ~n:1);
  check "n=1 epilogue" 1 (Pipeline.epilogue_length p ~n:1);
  check "n=1 executes 3 instructions" 3 (instructions_executed p ~n:1);
  check "n=0 executes nothing" 0 (instructions_executed p ~n:0);
  (* no instruction may touch an iteration >= n *)
  List.iter
    (fun (i : Pipeline.instruction) ->
      check_bool "iteration < n" true (i.iteration < 1))
    (p.Pipeline.prologue_per_n 1 @ p.Pipeline.epilogue_per_n 1)

let test_short_loop_accounting () =
  let p = chain_pipeline () in
  (* all unit times: running one iteration of the chain takes 3 steps
     and is pure overhead (no kernel repetition happens) *)
  check "n=1 total time" 3 (Pipeline.total_time p ~n:1);
  Alcotest.(check (float 1e-9)) "n=1 overhead" 1.0
    (Pipeline.overhead_ratio p ~n:1)

let test_steady_state_unchanged () =
  let p = chain_pipeline () in
  check "n >= depth uses the steady prologue" (Pipeline.prologue_length p)
    (Pipeline.prologue_length_for p ~n:5);
  check "n=5 executes 3 + 2*2 pro/epilogue instructions"
    (Pipeline.prologue_length p + Pipeline.epilogue_length p ~n:5)
    (instructions_executed p ~n:5)

(* ------------------------------------------------------------------ *)
(* 4. A late zero-delay cycle is named in linear time                   *)
(* ------------------------------------------------------------------ *)

let test_late_zero_delay_cycle () =
  let g = Workloads.Random_gen.layered ~nodes:100_000 ~seed:1 () in
  let n = Csdfg.n_nodes g in
  let a = Csdfg.node_of_label g "n99998"
  and b = Csdfg.node_of_label g "n99999" in
  let zero src dst =
    { Digraph.Graph.src; dst; label = { Csdfg.delay = 0; volume = 1 } }
  in
  let g =
    Csdfg.of_graph ~name:"late-cycle"
      ~labels:(Array.init n (Csdfg.label g))
      ~time:(Array.init n (Csdfg.time g))
      (Digraph.Graph.create ~n (Csdfg.edges g @ [ zero a b; zero b a ]))
  in
  let t0 = Unix.gettimeofday () in
  let result = Csdfg.check g in
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check (result unit string))
    "names the cycle"
    (Error "illegal CSDFG: cycle without positive delay: n99998 -> n99999")
    result;
  check_bool (Printf.sprintf "within 2 s (took %.3f s)" elapsed) true
    (elapsed < 2.0)

let () =
  Alcotest.run "regressions"
    [
      ( "fuel-bound",
        [
          Alcotest.test_case "superlinear cost converges" `Quick
            test_superlinear_cost_converges;
          Alcotest.test_case "fixed latency converges" `Quick
            test_superlinear_cost_fixed_latency;
        ] );
      ( "comm-validation",
        [
          Alcotest.test_case "zero rejects n <= 0" `Quick
            test_zero_rejects_nonpositive;
          Alcotest.test_case "uniform rejects n <= 0" `Quick
            test_uniform_rejects_nonpositive;
          Alcotest.test_case "custom rejects n <= 0" `Quick
            test_custom_still_rejects;
          Alcotest.test_case "valid constructors" `Quick
            test_valid_constructors_unchanged;
        ] );
      ( "pipeline-short-loops",
        [
          Alcotest.test_case "n < depth executes exactly n" `Quick
            test_short_loop_executes_exactly_n;
          Alcotest.test_case "n < depth accounting" `Quick
            test_short_loop_accounting;
          Alcotest.test_case "steady state unchanged" `Quick
            test_steady_state_unchanged;
        ] );
      ( "legality",
        [
          Alcotest.test_case "late zero-delay cycle at 10^5 nodes" `Quick
            test_late_zero_delay_cycle;
        ] );
    ]
