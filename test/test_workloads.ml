(* Tests for the workload library: every benchmark graph must be legal
   and match its documented shape. *)

module Csdfg = Dataflow.Csdfg

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_all_legal () =
  List.iter
    (fun (name, g) ->
      Alcotest.(check bool) (name ^ " legal") true (Csdfg.is_legal g))
    (Workloads.Suite.all ())

let test_suite_names_unique () =
  let names = Workloads.Suite.names () in
  check "unique" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_suite_find () =
  check_bool "finds" true (Workloads.Suite.find "fig1b" <> None);
  check_bool "missing" true (Workloads.Suite.find "nope" = None)

let test_fig7_shape () =
  let g = Workloads.Examples.fig7 in
  check "19 nodes" 19 (Csdfg.n_nodes g);
  (* paper: C F J L P are the two-cycle nodes *)
  List.iter
    (fun l -> check ("t " ^ l) 2 (Csdfg.time g (Csdfg.node_of_label g l)))
    [ "C"; "F"; "J"; "L"; "P" ];
  let singles = List.filter (fun v -> Csdfg.time g v = 1) (Csdfg.nodes g) in
  check "14 unit-time nodes" 14 (List.length singles);
  check_bool "cyclic" true (Oracle.Cycles.has_cycle (Csdfg.graph g))

let test_elliptic_op_mix () =
  let g = Workloads.Filters.elliptic in
  let adds, mults = Workloads.Filters.elliptic_op_counts in
  check "total ops" 34 (Csdfg.n_nodes g);
  check "adds" adds
    (List.length (List.filter (fun v -> Csdfg.time g v = 1) (Csdfg.nodes g)));
  check "mults" mults
    (List.length (List.filter (fun v -> Csdfg.time g v = 2) (Csdfg.nodes g)));
  check_bool "cyclic" true (Oracle.Cycles.has_cycle (Csdfg.graph g))

let test_lattice_shape () =
  let g = Workloads.Filters.lattice in
  check "3 stages -> 14 nodes" 14 (Csdfg.n_nodes g);
  check_bool "cyclic" true (Oracle.Cycles.has_cycle (Csdfg.graph g));
  let g5 = Workloads.Filters.lattice_stages 5 in
  check "5 stages -> 22 nodes" 22 (Csdfg.n_nodes g5);
  check_bool "still legal" true (Csdfg.is_legal g5)

let test_lattice_bad_stages () =
  check_bool "rejects 0" true
    (match Workloads.Filters.lattice_stages 0 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_fir_shape () =
  let g = Workloads.Dsp.fir ~taps:5 in
  (* 5 multipliers + 4 partial sums + x + y *)
  check "nodes" 11 (Csdfg.n_nodes g);
  check_bool "legal" true (Csdfg.is_legal g);
  let g1 = Workloads.Dsp.fir ~taps:1 in
  check "degenerate tap" 3 (Csdfg.n_nodes g1);
  check_bool "degenerate legal" true (Csdfg.is_legal g1)

let test_correlator_shape () =
  let g = Workloads.Dsp.correlator ~lags:3 in
  check "nodes" 7 (Csdfg.n_nodes g);
  check_bool "legal" true (Csdfg.is_legal g)

let test_diffeq_iteration_bound () =
  (* diffeq's tightest loop is s2 -> m2 -> m3 -> s1 -> s2 with delay 1:
     T = 1 + 2 + 2 + 1 = 6. *)
  match Dataflow.Iteration_bound.exact Workloads.Dsp.diffeq with
  | None -> Alcotest.fail "diffeq is cyclic"
  | Some (t, d) -> check_bool "bound 6" true (t = 6 * d)

let test_dsp_all () =
  List.iter
    (fun g ->
      Alcotest.(check bool) (Csdfg.name g ^ " legal") true (Csdfg.is_legal g))
    (Workloads.Dsp.all ())

let test_stencil_shape () =
  let g = Workloads.Kernels.stencil1d ~points:5 in
  check "nodes" 5 (Csdfg.n_nodes g);
  (* interior points: self + both neighbours = 13 edges for 5 points *)
  check "edges" 13 (Csdfg.n_edges g);
  check_bool "legal" true (Csdfg.is_legal g);
  (* every dependency is loop-carried: the intra-iteration DAG is empty *)
  check "fully pipelinable" 0
    (Digraph.Graph.n_edges (Csdfg.zero_delay_graph g));
  let g1 = Workloads.Kernels.stencil1d ~points:1 in
  check "degenerate" 1 (Csdfg.n_nodes g1);
  check_bool "degenerate legal" true (Csdfg.is_legal g1)

let test_matvec_shape () =
  let g = Workloads.Kernels.matvec ~size:3 in
  (* 3 x-nodes + 9 multipliers + 2 adders per row *)
  check "nodes" 18 (Csdfg.n_nodes g);
  check_bool "legal" true (Csdfg.is_legal g);
  let g1 = Workloads.Kernels.matvec ~size:1 in
  check "size 1" 2 (Csdfg.n_nodes g1);
  check_bool "size 1 legal" true (Csdfg.is_legal g1)

let test_lms_shape () =
  let g = Workloads.Kernels.lms ~taps:4 in
  (* x + 4 mf + 3 sums + err + 4 wu + 4 wa *)
  check "nodes" 17 (Csdfg.n_nodes g);
  check_bool "legal" true (Csdfg.is_legal g);
  (* the weight-update recurrence is the binding cycle:
     mf -> sums -> err -> wu -> wa -> mf with delay 1 *)
  check_bool "cyclic" true (Oracle.Cycles.has_cycle (Csdfg.graph g))

let test_volterra_shape () =
  let g = Workloads.Kernels.volterra in
  (* x + 3 ml + 3 pp + 3 mq + 5 y *)
  check "nodes" 15 (Csdfg.n_nodes g);
  check_bool "legal" true (Csdfg.is_legal g)

let test_fft_stage_shape () =
  let g = Workloads.Kernels.fft_stage ~points:8 in
  (* 8 block slots + 4 butterflies x (multiplier + 2 adders) *)
  check "nodes" 20 (Csdfg.n_nodes g);
  check_bool "legal" true (Csdfg.is_legal g);
  check_bool "rejects non powers of two" true
    (match Workloads.Kernels.fft_stage ~points:6 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  let g2 = Workloads.Kernels.fft_stage ~points:2 in
  check "minimal stage" 5 (Csdfg.n_nodes g2)

let test_biquad_cascade_shape () =
  let g = Workloads.Kernels.biquad_cascade ~sections:3 in
  (* in + 3 x (w, a1, a2, b1, y) *)
  check "nodes" 16 (Csdfg.n_nodes g);
  check_bool "legal" true (Csdfg.is_legal g);
  (* per-section recurrence w -> a1 -> w has T = 1 + 2 = 3, delay 1 *)
  match Dataflow.Iteration_bound.exact Workloads.Kernels.(biquad_cascade ~sections:1) with
  | Some (t, d) -> check_bool "bound 3" true (t = 3 * d)
  | None -> Alcotest.fail "cyclic"

let test_wavefront_shape () =
  let g = Workloads.Kernels.wavefront ~size:4 in
  check "cells" 16 (Csdfg.n_nodes g);
  check_bool "legal" true (Csdfg.is_legal g);
  (* intra-sweep dependencies are exactly the west chains *)
  check "zero-delay edges" 12
    (Digraph.Graph.n_edges (Csdfg.zero_delay_graph g));
  let g1 = Workloads.Kernels.wavefront ~size:1 in
  check "single cell" 1 (Csdfg.n_nodes g1)

let test_kernels_schedule_everywhere () =
  List.iter
    (fun g ->
      let r = Cyclo.Compaction.run_on g (Topology.mesh ~rows:2 ~cols:2) in
      Alcotest.(check bool)
        (Csdfg.name g ^ " legal schedule")
        true
        (Cyclo.Validator.is_legal r.Cyclo.Compaction.best))
    (Workloads.Kernels.all ())

let test_stencil_reaches_bound () =
  (* All-delayed dependencies: the iteration bound is tiny and the
     compactor should approach it given enough processors. *)
  let g = Workloads.Kernels.stencil1d ~points:4 in
  let r = Cyclo.Compaction.run_on g (Topology.complete 4) in
  let bound = Option.get (Dataflow.Iteration_bound.exact_ceil g) in
  Alcotest.(check bool) "close to bound" true
    (Cyclo.Schedule.length r.Cyclo.Compaction.best <= bound + 2)

let test_random_always_legal () =
  for seed = 0 to 49 do
    let g = Workloads.Random_gen.generate ~seed () in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d" seed)
      true (Csdfg.is_legal g)
  done

let test_random_deterministic () =
  let a = Workloads.Random_gen.generate ~seed:7 () in
  let b = Workloads.Random_gen.generate ~seed:7 () in
  Alcotest.(check string) "same text" (Dataflow.Io.to_string a)
    (Dataflow.Io.to_string b)

let test_random_connected () =
  for seed = 0 to 19 do
    let g = Workloads.Random_gen.generate_connected ~seed () in
    (* every non-root node has at least one predecessor *)
    let orphans =
      List.filter
        (fun v -> v <> 0 && Csdfg.pred g v = [])
        (Csdfg.nodes g)
    in
    check (Printf.sprintf "seed %d no orphans" seed) 0 (List.length orphans)
  done

let test_random_params_respected () =
  let params =
    { Workloads.Random_gen.default with nodes = 30; max_time = 5; max_delay = 2 }
  in
  let g = Workloads.Random_gen.generate ~params ~seed:3 () in
  check "node count" 30 (Csdfg.n_nodes g);
  List.iter
    (fun v -> check_bool "time in range" true (Csdfg.time g v <= 5))
    (Csdfg.nodes g);
  List.iter
    (fun e -> check_bool "delay in range" true (Csdfg.delay e <= 2))
    (Csdfg.edges g)

let test_layered_shape () =
  let g = Workloads.Random_gen.layered ~nodes:2_000 ~seed:1 () in
  check "node count" 2_000 (Csdfg.n_nodes g);
  Alcotest.(check string) "name encodes size and seed" "layered-2000-1"
    (Csdfg.name g);
  check_bool "legal" true (Csdfg.is_legal g);
  check_bool "cyclic (feedback edges present)" true
    (Oracle.Cycles.has_cycle (Csdfg.graph g));
  (* every backward edge carries delay — that is what keeps it legal *)
  List.iter
    (fun (e : Dataflow.Csdfg.attr Digraph.Graph.edge) ->
      if e.Digraph.Graph.src >= e.Digraph.Graph.dst then
        check_bool "feedback edge delayed" true (Csdfg.delay e >= 1)
      else check "forward edge zero-delay" 0 (Csdfg.delay e))
    (Csdfg.edges g)

let test_layered_deterministic () =
  let a = Workloads.Random_gen.layered ~nodes:1_000 ~seed:42 () in
  let b = Workloads.Random_gen.layered ~nodes:1_000 ~seed:42 () in
  let c = Workloads.Random_gen.layered ~nodes:1_000 ~seed:43 () in
  Alcotest.(check string) "same seed, same text" (Dataflow.Io.to_string a)
    (Dataflow.Io.to_string b);
  check_bool "different seed, different text" true
    (Dataflow.Io.to_string a <> Dataflow.Io.to_string c)

let test_layered_linear_degree () =
  (* the scale generator must stay O(nodes * fan_in): with fan_in f,
     no node may have more than f zero-delay parents *)
  let g = Workloads.Random_gen.layered ~fan_in:4 ~nodes:3_000 ~seed:5 () in
  List.iter
    (fun v ->
      let zd =
        List.filter (fun e -> Csdfg.delay e = 0) (Csdfg.pred g v)
      in
      check_bool "fan-in bounded" true (List.length zd <= 4))
    (Csdfg.nodes g)

let test_layered_schedules () =
  let g = Workloads.Random_gen.layered ~nodes:500 ~seed:9 () in
  let s = Cyclo.Startup.run_on g (Topology.linear_array 4) in
  check_bool "startup schedule is legal" true (Cyclo.Validator.is_legal s)

let test_layered_bad_args () =
  check_bool "rejects 0 nodes" true
    (match Workloads.Random_gen.layered ~nodes:0 ~seed:1 () with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check_bool "rejects fan_in 0" true
    (match Workloads.Random_gen.layered ~fan_in:0 ~nodes:10 ~seed:1 () with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_dot_export_workloads () =
  (* Rendering should not raise and should mention every node label. *)
  let g = Workloads.Examples.fig1b in
  let dot = Dataflow.Dot_export.to_dot g in
  List.iter
    (fun v ->
      Alcotest.(check bool)
        ("mentions " ^ Csdfg.label g v)
        true
        (let needle = Csdfg.label g v in
         let hl = String.length dot and nl = String.length needle in
         let rec go i =
           i + nl <= hl && (String.sub dot i nl = needle || go (i + 1))
         in
         go 0))
    (Csdfg.nodes g)

let () =
  Alcotest.run "workloads"
    [
      ( "suite",
        [
          Alcotest.test_case "all legal" `Quick test_all_legal;
          Alcotest.test_case "unique names" `Quick test_suite_names_unique;
          Alcotest.test_case "find" `Quick test_suite_find;
        ] );
      ( "examples",
        [ Alcotest.test_case "fig7 shape" `Quick test_fig7_shape ] );
      ( "filters",
        [
          Alcotest.test_case "elliptic op mix" `Quick test_elliptic_op_mix;
          Alcotest.test_case "lattice shape" `Quick test_lattice_shape;
          Alcotest.test_case "lattice bad stages" `Quick test_lattice_bad_stages;
        ] );
      ( "dsp",
        [
          Alcotest.test_case "fir" `Quick test_fir_shape;
          Alcotest.test_case "correlator" `Quick test_correlator_shape;
          Alcotest.test_case "diffeq bound" `Quick test_diffeq_iteration_bound;
          Alcotest.test_case "all legal" `Quick test_dsp_all;
        ] );
      ( "kernels",
        [
          Alcotest.test_case "stencil" `Quick test_stencil_shape;
          Alcotest.test_case "matvec" `Quick test_matvec_shape;
          Alcotest.test_case "lms" `Quick test_lms_shape;
          Alcotest.test_case "volterra" `Quick test_volterra_shape;
          Alcotest.test_case "fft stage" `Quick test_fft_stage_shape;
          Alcotest.test_case "biquad cascade" `Quick test_biquad_cascade_shape;
          Alcotest.test_case "wavefront" `Quick test_wavefront_shape;
          Alcotest.test_case "all schedule" `Quick test_kernels_schedule_everywhere;
          Alcotest.test_case "stencil bound" `Quick test_stencil_reaches_bound;
        ] );
      ( "random",
        [
          Alcotest.test_case "always legal" `Quick test_random_always_legal;
          Alcotest.test_case "deterministic" `Quick test_random_deterministic;
          Alcotest.test_case "connected" `Quick test_random_connected;
          Alcotest.test_case "params" `Quick test_random_params_respected;
          Alcotest.test_case "layered shape" `Quick test_layered_shape;
          Alcotest.test_case "layered deterministic" `Quick
            test_layered_deterministic;
          Alcotest.test_case "layered fan-in" `Quick
            test_layered_linear_degree;
          Alcotest.test_case "layered schedules" `Quick
            test_layered_schedules;
          Alcotest.test_case "layered bad args" `Quick
            test_layered_bad_args;
        ] );
      ( "export",
        [ Alcotest.test_case "dot" `Quick test_dot_export_workloads ] );
    ]
