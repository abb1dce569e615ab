(* The full cross product: every built-in workload on every paper
   architecture under both remapping modes.  Everything must produce a
   validator-legal schedule no longer than its start-up schedule, and
   never beat the iteration bound. *)

module Schedule = Cyclo.Schedule
module Compaction = Cyclo.Compaction

let architectures () =
  [
    ("complete8", Topology.complete 8);
    ("linear8", Topology.linear_array 8);
    ("ring8", Topology.ring 8);
    ("mesh2x4", Topology.mesh ~rows:2 ~cols:4);
    ("cube3", Topology.hypercube 3);
  ]

let test_everything () =
  let cells = ref 0 in
  List.iter
    (fun (wname, g) ->
      let bound = Dataflow.Iteration_bound.exact_ceil g in
      List.iter
        (fun (aname, topo) ->
          List.iter
            (fun (mname, mode) ->
              incr cells;
              let label = Printf.sprintf "%s/%s/%s" wname aname mname in
              let r =
                Compaction.run_on ~mode ~passes:25 ~validate:false g topo
              in
              Alcotest.(check bool)
                (label ^ ": legal") true
                (Cyclo.Validator.is_legal r.Compaction.best);
              Alcotest.(check bool)
                (label ^ ": best <= startup")
                true
                (Schedule.length r.Compaction.best
                <= Schedule.length r.Compaction.startup);
              match bound with
              | None -> ()
              | Some b ->
                  Alcotest.(check bool)
                    (label ^ ": respects the iteration bound")
                    true
                    (Schedule.length r.Compaction.best >= b))
            [
              ("relax", Cyclo.Remap.With_relaxation);
              ("strict", Cyclo.Remap.Without_relaxation);
            ])
        (architectures ()))
    (Workloads.Suite.all ());
  Alcotest.(check bool)
    (Printf.sprintf "covered %d cells" !cells)
    true (!cells >= 180)

let () =
  Alcotest.run "matrix"
    [
      ( "workloads-x-architectures-x-modes",
        [ Alcotest.test_case "full sweep" `Slow test_everything ] );
    ]
