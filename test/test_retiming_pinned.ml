(* Compaction's retiming pinned machine by machine.  Each digest is the
   MD5 of one line per graph, over the 20 suite loops and one
   disconnected graph (a disjoint union, so each weakly connected
   component is normalised on its own), after [Compaction.run] on one
   of the six machines the suite-simulate benchmark uses, in one remap
   mode.  A line holds:
   - the best schedule's retimed delays, in edge order;
   - the trace length and whether the search converged;
   - the [# retiming=] line `ccsched export -f csv` writes;
   - the prologue length and the epilogue length for 1000 iterations;
   - the MD5 of the C program [C_emitter.emit] writes for the schedule.
   The digests were captured while each pass still rewrote the graph, so
   a change to how the retiming is stored, applied or read shows here.
   A failing row prints the actual digest. *)

module Csdfg = Dataflow.Csdfg
module Schedule = Cyclo.Schedule
module Compaction = Cyclo.Compaction
module Pipeline = Cyclo.Pipeline
module Remap = Cyclo.Remap

(* The three reads of the retiming a schedule carries. *)
let retimed_delays _g best =
  List.map (Schedule.delay best) (Csdfg.edges (Schedule.dfg best))

let exported_retiming _g best = Some (Pipeline.build best).Pipeline.retiming
let pipeline _g best = Pipeline.build best

let graphs =
  lazy
    (Workloads.Suite.all ()
    @ [
        ( "fig7+diffeq",
          Dataflow.Transform.disjoint_union Workloads.Examples.fig7
            Workloads.Dsp.diffeq );
      ])

let ints l = String.concat "," (List.map string_of_int l)

(* As `ccsched export -f csv` prints it, without the newline. *)
let retiming_line g best =
  match exported_retiming g best with
  | Some r -> "# retiming=" ^ ints (Array.to_list r)
  | None -> ""

let line (name, g) comm mode =
  let r = Compaction.run ~mode g comm in
  let best = r.Compaction.best in
  let p = pipeline g best in
  Printf.sprintf "%s;delays=%s;passes=%d;converged=%b;%s;prologue=%d;epilogue=%d;c=%s"
    name
    (ints (retimed_delays g best))
    (List.length r.Compaction.trace)
    r.Compaction.converged (retiming_line g best)
    (Pipeline.prologue_length p)
    (Pipeline.epilogue_length p ~n:1000)
    (Digest.to_hex (Digest.string (Codegen.C_emitter.emit best)))

let digest machine mode =
  let comm =
    Cyclo.Comm.of_topology (Result.get_ok (Topology.of_spec machine))
  in
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          (List.map (fun g -> line g comm mode) (Lazy.force graphs))))

let golden =
  [
    ("linear:8", Remap.With_relaxation, "b9b3e8cdd578f8baff72c299125f4b14");
    ("linear:8", Remap.Without_relaxation, "5592edd80e8c351593355225c3b225be");
    ("ring:8", Remap.With_relaxation, "eae4b2708b4a0ad99beff2311a7e6c5b");
    ("ring:8", Remap.Without_relaxation, "65d60c5c8c8acdd9fe5aa621e5215497");
    ("mesh:2x4", Remap.With_relaxation, "bba78cfc5ad1c1b062fdba1f8dc4a9cf");
    ("mesh:2x4", Remap.Without_relaxation, "aaebe0add2c1344c70b370fd9ebbff6c");
    ("mesh:4x4", Remap.With_relaxation, "7016e6fddd0ec765981416d852c3e7c9");
    ("mesh:4x4", Remap.Without_relaxation, "eaa03a6fa40eaa63be455f2994f35cad");
    ("hypercube:3", Remap.With_relaxation, "a002d6ec7c20c2f5094fdf9bdfcd5031");
    ("hypercube:3", Remap.Without_relaxation, "37ae864d6c95dfab427d6d455b515f8c");
    ("complete:8", Remap.With_relaxation, "0d3a1c479255305437d3ab94b7cf6e38");
    ("complete:8", Remap.Without_relaxation, "5042785d01b113e32d5bbbbf2ff04152");
  ]

let mode_name = function
  | Remap.With_relaxation -> "with"
  | Remap.Without_relaxation -> "without"

let test_row (machine, mode, want) () =
  Alcotest.(check string)
    (Printf.sprintf "%s %s-relaxation" machine (mode_name mode))
    want (digest machine mode)

let () =
  Alcotest.run "retiming pinned"
    [
      ( "compaction",
        List.map
          (fun ((machine, mode, _) as row) ->
            Alcotest.test_case
              (Printf.sprintf "%s %s" machine (mode_name mode))
              `Quick (test_row row))
          golden );
    ]
