(* Workload scale-compact: seeded 10 000-node layered loops, where
   per-node cost dominates.  Each op is the call sequence of
   `ccsched schedule FILE --arch linear:8 --passes 16` with a JSON
   export: parse, compaction, export. *)

module Sim = Machine.Simulator
module Schedule = Cyclo.Schedule

let nodes = 10_000
let graphs = 3
let arch = "linear:8"
let compaction_passes = 16
let nominal_ops_per_s = 1.0
let setup_repeats = 3

(* Iterations simulated (outside the timed loop) for period_geomean. *)
let sim_iterations = 10

let inputs ~seed =
  let st = Random.State.make [| seed; 0x5ca1e |] in
  Array.init graphs (fun _ ->
      Dataflow.Io.to_string
        (Workloads.Random_gen.layered ~nodes ~seed:(Random.State.bits st) ()))

type output = {
  topo : Topology.t;
  result : Cyclo.Compaction.result;
  json : string;
}

let op text =
  let g = Steps.parse ~validate:false text in
  let topo, comm = Steps.topology ~wormhole:false arch in
  let result = Steps.compact ~passes:compaction_passes g comm in
  { topo; result; json = Steps.export result.Cyclo.Compaction.best }

type summary = {
  digest : Digest.t;
  signature : string;
  length : int;
  passes : int;
  compacted : int;
  bytes : int;
  checked : (bool * float) option;
      (** ops below [full_checks]: legality on the machine, simulated
          period *)
}

(* Each op starts from a compacted heap, as one `ccsched schedule` run in
   a fresh process would; without it the slowest op of a run and the
   peak RSS depend on where earlier ops left the major GC. *)
let fresh_heap () = Gc.compact ()

let summarize ~full_checks k o =
  let best = o.result.Cyclo.Compaction.best in
  let summary =
  {
    digest = Digest.string o.json;
    signature = Schedule.signature best;
    length = Schedule.length best;
    passes = List.length o.result.Cyclo.Compaction.trace;
    compacted = Steps.useful_passes o.result;
    bytes = String.length o.json;
    checked =
      (if k >= full_checks then None
       else
         let stats =
           Sim.execute ~policy:Sim.Fifo_links best o.topo
             ~iterations:sim_iterations
         in
         Some (Steps.legal best o.topo, stats.Sim.average_period));
  }
  in
  fresh_heap ();
  summary

let same s r = s.digest = r.digest && s.signature = r.signature

let run ~seed ~seconds ~traced ~spans_path =
  let texts = inputs ~seed in
  let n = Array.length texts in
  let problems = ref [] in
  (* Set-up: parse every input, then one warm-up op; repeated, and the
     median reported. *)
  let setups =
    List.init setup_repeats (fun r ->
        fresh_heap ();
        let before = Common.kernel_ns () in
        let t0 = Common.now_ns () in
        Array.iter
          (fun text -> ignore (Steps.parse ~validate:false text))
          texts;
        ignore (op texts.(r mod n));
        let dt = Common.now_ns () - t0 in
        Common.calibrated_s ~before ~after:(Common.kernel_ns ()) dt)
  in
  let setup_s = Common.median_float setups in
  fresh_heap ();
  let passes = Common.passes ~seconds ~nominal_ops_per_s ~ops:n in
  let ops = Array.concat (List.init passes (fun _ -> texts)) in
  let timed =
    Inproc.run ~block:1 ~op ~summarize:(summarize ~full_checks:n) ops
  in
  let peak_rss_mb = Common.peak_rss_mb () in
  let refs = Array.sub timed.Inproc.summaries 0 n in
  let checked = Array.map (fun r -> Option.get r.checked) refs in
  Array.iteri
    (fun i (legal, _) ->
      Common.check problems
        (Printf.sprintf "graph %d: schedule legal on %s" i arch)
        legal)
    checked;
  let failed loop =
    if Array.exists (fun (legal, _) -> not legal) checked then
      Array.length loop.Inproc.lat_ns
    else Inproc.mismatches ~same loop.Inproc.summaries refs
  in
  let timed_failed = failed timed in
  Common.check problems "every pass reproduces the first pass's schedules"
    (timed_failed = 0);
  let op_digest = Common.op_digest ~passes (Array.to_list texts) in
  if not traced then
    {
      Common.attempted = Array.length timed.Inproc.lat_ns;
      failed = timed_failed;
      problems = !problems;
      op_digest;
      metrics =
        Common.end_to_end ~passes ~setup_s ~setup_samples:setup_repeats
          ~cal_ns:timed.Inproc.cal_ns ~failed:timed_failed ~peak_rss_mb
          ~lengths:
            (Array.to_list (Array.map (fun r -> float_of_int r.length) refs))
          ~periods:(Array.to_list (Array.map snd checked));
    }
  else begin
    let traced_loop =
      Inproc.run ~traced:true ~block:1 ~op
        ~summarize:(summarize ~full_checks:0)
        ops
    in
    let traced_failed = failed traced_loop in
    Common.check problems "traced ops pick the untraced winners"
      (traced_failed = 0);
    Ledger.write spans_path;
    let sums = traced_loop.Inproc.summaries in
    let total f = Array.fold_left (fun a s -> a + f s) 0 sums in
    let per_op f = float_of_int (total f) /. float_of_int (Array.length sums) in
    let values =
      Ledger.values problems Ledger.in_process_layers
      @ [
          ("compaction.passes", per_op (fun s -> s.passes));
          ( "compaction.useful_ratio",
            float_of_int (total (fun s -> s.compacted))
            /. float_of_int (max 1 (total (fun s -> s.passes))) );
          ("export.bytes", per_op (fun s -> s.bytes));
          ( "trace.overhead_ratio",
            Inproc.seconds traced_loop /. Inproc.seconds timed );
        ]
    in
    {
      Common.attempted = Array.length timed.Inproc.lat_ns + Array.length sums;
      failed = timed_failed + traced_failed;
      problems = !problems;
      op_digest;
      metrics = Common.per_layer ~samples:(Array.length sums) values;
    }
  end
