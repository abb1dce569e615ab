(* A machine that is not in the standard gallery: four fast cores in a
   ring, a slow link to an accelerator pair, and per-link latencies.
   Schedules the LMS adaptive filter on it, executes the result on the
   event-driven simulator, and prints prologue/epilogue codegen — the
   full pipeline a downstream user would run on their own hardware model.

     dune exec examples/custom_machine.exe *)

module Schedule = Cyclo.Schedule

let machine () =
  (* 0-3: ring of fast cores (latency-1 links); 4-5: accelerators hanging
     off core 0 over a latency-3 bridge, joined by a latency-1 link. *)
  Topology.of_weighted_links ~name:"soc" ~n:6
    [
      (0, 1, 1); (1, 2, 1); (2, 3, 1); (3, 0, 1);
      (0, 4, 3); (4, 5, 1);
    ]

let () =
  let topo = machine () in
  Fmt.pr "%a@.%a@.@." Topology.pp topo Topology.pp_distance_matrix topo;

  let dfg = Workloads.Kernels.lms ~taps:4 in
  Fmt.pr "workload: %a@." Dataflow.Csdfg.pp_stats dfg;
  (match Dataflow.Iteration_bound.exact_ceil dfg with
  | Some b -> Fmt.pr "iteration bound: %d@.@." b
  | None -> ());

  (* Full machine vs a 3-core budget of the same SoC. *)
  let budget = Topology.induced topo [ 0; 1; 2 ] in
  List.iter
    (fun (label, t) ->
      let r = Cyclo.Compaction.run_on dfg t in
      Fmt.pr "%-18s start-up %d -> compacted %d@." label
        (Schedule.length r.Cyclo.Compaction.startup)
        (Schedule.length r.Cyclo.Compaction.best))
    [ ("full SoC (6 pes)", topo); ("3-core budget", budget) ];

  let best = (Cyclo.Compaction.run_on dfg topo).Cyclo.Compaction.best in
  Fmt.pr "@.best schedule:@.%s@." (Cyclo.Export.gantt best);

  (* Execute it: the analytical model should hold exactly. *)
  let stats =
    Machine.Simulator.execute ~policy:Machine.Simulator.Contention_free best
      topo ~iterations:50
  in
  Fmt.pr "execution: %a@." Machine.Simulator.pp_stats stats;
  Fmt.pr "slowdown vs static table: %.3f@."
    (Machine.Simulator.slowdown stats best);

  (* And the loop pre/post-amble its pipelining needs. *)
  let p = Cyclo.Pipeline.build best in
  Fmt.pr "pipeline depth %d, prologue %d instructions, overhead at \
          N=1000: %.3f%%@."
    p.Cyclo.Pipeline.depth
    (Cyclo.Pipeline.prologue_length p)
    (100. *. Cyclo.Pipeline.overhead_ratio p ~n:1000)
