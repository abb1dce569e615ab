(* Walkthrough of the paper's Figures 1-4: one cyclo-compaction pass at a
   time on the 2x2 mesh, showing the rotation set, the retimed delays and
   the evolving schedule table.

     dune exec examples/mesh_pipeline.exe *)

module Csdfg = Dataflow.Csdfg
module Schedule = Cyclo.Schedule

let pp_delays ppf sched =
  let dfg = Schedule.dfg sched in
  List.iter
    (fun e ->
      Fmt.pf ppf "%s->%s:%d " (Csdfg.label dfg e.Digraph.Graph.src)
        (Csdfg.label dfg e.Digraph.Graph.dst) (Schedule.delay sched e))
    (Csdfg.edges dfg)

let () =
  let dfg = Workloads.Examples.fig1b in
  let mesh =
    Topology.relabel (Topology.mesh ~rows:2 ~cols:2)
      Workloads.Examples.fig1_mesh_permutation
  in
  (match Dataflow.Iteration_bound.exact_ceil dfg with
  | Some b -> Fmt.pr "iteration bound of fig1b: %d control steps@.@." b
  | None -> ());

  let sched = ref (Cyclo.Startup.run_on dfg mesh) in
  Fmt.pr "start-up schedule (paper Figure 6(b)), length %d:@.%a@.@."
    (Schedule.length !sched) Schedule.pp !sched;

  for pass = 1 to 6 do
    let rotated =
      List.map
        (Csdfg.label (Schedule.dfg !sched))
        (Schedule.first_row (Schedule.normalize !sched))
    in
    let next, outcome = Cyclo.Compaction.pass Cyclo.Remap.With_relaxation !sched in
    Cyclo.Validator.assert_legal next;
    Fmt.pr "pass %d: rotate {%s} -> %a, length %d@." pass
      (String.concat ", " rotated)
      Cyclo.Compaction.pp_outcome outcome (Schedule.length next);
    Fmt.pr "retimed delays: %a@." pp_delays next;
    Fmt.pr "%a@.@." Schedule.pp next;
    sched := next
  done;

  Fmt.pr "The paper reaches length 5 after three passes (Figure 3(b));@.";
  Fmt.pr "the remapper here keeps going to the iteration bound.@.@.";
  Fmt.pr "the final kernel unrolled over three iterations (the software@.";
  Fmt.pr "pipeline the paper's Figure 2(b) sketches):@.@.";
  Fmt.pr "%s@." (Cyclo.Export.gantt_unrolled ~iterations:3 !sched)
