(* Workload suite-simulate: the paper's own traffic.  The 20 suite loops
   plus, in every pass, a dozen fresh seeded random loops, crossed with
   six machines, both transports and both remap modes; each op is the
   call sequence of `ccsched simulate --contention`. *)

module Csdfg = Dataflow.Csdfg
module Sim = Machine.Simulator
module Schedule = Cyclo.Schedule

let archs =
  [ "linear:8"; "ring:8"; "mesh:2x4"; "mesh:4x4"; "hypercube:3"; "complete:8" ]

(* Every pass holds one random loop of each size, drawn afresh for that
   pass, so a seed changes the loops' structure but not their sizes.
   Their work depends on their structure (compaction runs until the
   search repeats a state): with the same 12 loops in every pass, the
   random loops took 1.16 to 1.64 times as long as the suite loops from
   one seed to the next.  Fresh loops per pass let a run average over
   passes x 12 of them. *)
let random_sizes = [ 8; 9; 11; 12; 14; 15; 17; 18; 20; 21; 23; 24 ]
let iterations = 40
let nominal_ops_per_s = 200.
let setup_repeats = 3

(* Ops between two calibration samples (about a quarter second). *)
let block = 48

type input = {
  text : string;  (** the .csdfg text the op parses *)
  arch : string;
  wormhole : bool;
  mode : Cyclo.Remap.mode;
}

(* A loop crossed with the six machines, both transports and both remap
   modes. *)
let configs_per_loop = List.length archs * 2 * 2

let configs loop =
  let text = Dataflow.Io.to_string loop in
  List.concat_map
    (fun arch ->
      List.concat_map
        (fun wormhole ->
          List.map
            (fun mode -> { text; arch; wormhole; mode })
            [ Cyclo.Remap.With_relaxation; Cyclo.Remap.Without_relaxation ])
        [ false; true ])
    archs

let suite_inputs =
  Array.of_list
    (List.concat_map (fun (_, g) -> configs g) (Workloads.Suite.all ()))

let random_inputs st =
  Array.of_list
    (List.concat_map
       (fun nodes ->
         configs
           (Workloads.Random_gen.generate_connected
              ~params:{ Workloads.Random_gen.default with nodes }
              ~seed:(Random.State.bits st) ()))
       random_sizes)

(* The run's op list: [passes] passes, each the suite inputs followed by
   that pass's random loops. *)
let op_list ~seed ~passes =
  let st = Random.State.make [| seed; 0x5175 |] in
  Array.concat
    (Array.to_list
       (Array.init passes (fun _ ->
            Array.append suite_inputs (random_inputs st))))

type output = {
  g : Csdfg.t;
  topo : Topology.t;
  comm : Cyclo.Comm.t;
  result : Cyclo.Compaction.result;
  json : string;
  stats : Sim.stats;
}

let op inp =
  let g = Steps.parse inp.text in
  let topo, comm = Steps.topology ~wormhole:inp.wormhole inp.arch in
  let result = Steps.compact ~mode:inp.mode g comm in
  let best = result.Cyclo.Compaction.best in
  let json = Steps.export best in
  let transport =
    if inp.wormhole then Sim.Wormhole else Sim.Store_and_forward
  in
  let stats =
    Ledger.span "simulator" (fun () ->
        Sim.execute ~policy:Sim.Fifo_links ~transport best topo ~iterations)
  in
  { g; topo; comm; result; json; stats }

type summary = {
  digest : Digest.t;  (** of the exported schedule *)
  signature : string;  (** of the winning schedule *)
  length : int;
  period : float;
  makespan : int;
  messages : int;
  bytes : int;
  passes : int;
  compacted : int;
  completed : bool;  (** every instance of every iteration executed *)
  legal : bool;  (** [full] checks: validator, machine, lower bound *)
}

let summarize ~full k o =
  let best = o.result.Cyclo.Compaction.best in
  let busy = Array.fold_left ( + ) 0 o.stats.Sim.busy in
  {
    digest = Digest.string o.json;
    signature = Schedule.signature best;
    length = Schedule.length best;
    period = o.stats.Sim.average_period;
    makespan = o.stats.Sim.makespan;
    messages = o.stats.Sim.messages;
    bytes = String.length o.json;
    passes = List.length o.result.Cyclo.Compaction.trace;
    compacted = Steps.useful_passes o.result;
    completed =
      o.stats.Sim.iterations = iterations
      && busy = iterations * Csdfg.total_time o.g;
    legal =
      (not (full k))
      || Steps.legal best o.topo
         && Schedule.length best >= Cyclo.Exhaustive.lower_bound o.g o.comm;
  }

let same s r =
  s.digest = r.digest && s.signature = r.signature && s.makespan = r.makespan
  && s.period = r.period && s.completed

let run ~seed ~seconds ~traced ~spans_path =
  let n_suite = Array.length suite_inputs in
  let problems = ref [] in
  (* Set-up: warm-up passes over the fixed suite inputs, whose outputs
     become the references every later op on them must reproduce. *)
  let warmups =
    List.init setup_repeats (fun _ ->
        Inproc.run ~block ~op
          ~summarize:(summarize ~full:(fun _ -> true))
          suite_inputs)
  in
  let refs = (List.hd warmups).Inproc.summaries in
  Array.iteri
    (fun i r ->
      Common.check problems
        (Printf.sprintf "suite input %d: schedule legal, L >= lower bound" i)
        r.legal;
      Common.check problems
        (Printf.sprintf "suite input %d: every simulated iteration completes"
           i)
        r.completed)
    refs;
  List.iter
    (fun w ->
      Common.check problems "warm-up passes agree"
        (Inproc.mismatches ~same w.Inproc.summaries refs = 0))
    warmups;
  let setup_s =
    Common.median_float (List.map (fun w -> Inproc.seconds w) warmups)
  in
  let passes =
    Common.passes ~seconds ~nominal_ops_per_s
      ~ops:(n_suite + (configs_per_loop * List.length random_sizes))
  in
  let ops = op_list ~seed ~passes in
  let per_pass = Array.length ops / passes in
  (* The random loops are new in every pass: each of their ops gets the
     full checks, outside the timed region. *)
  let random k = k mod per_pass >= n_suite in
  let bad_refs =
    Array.exists (fun r -> not (r.legal && r.completed)) refs
  in
  let failed loop =
    if bad_refs then Array.length ops
    else begin
      let bad = ref 0 in
      Array.iteri
        (fun k s ->
          let ok =
            if random k then s.legal && s.completed
            else same s refs.(k mod per_pass)
          in
          if not ok then incr bad)
        loop.Inproc.summaries;
      !bad
    end
  in
  let timed =
    Inproc.run ~block ~op ~summarize:(summarize ~full:random) ops
  in
  let peak_rss_mb = Common.peak_rss_mb () in
  let timed_failed = failed timed in
  Common.check problems
    "timed ops reproduce the warm-up outputs or pass the full checks"
    (timed_failed = 0);
  (* Schedule quality over the fixed suite inputs: the random loops'
     lengths would move the geomeans from seed to seed. *)
  let distinct f = List.map f (Array.to_list refs) in
  let op_digest =
    Common.op_digest ~passes
      (Array.to_list
         (Array.map
            (fun i ->
              Printf.sprintf "%s|%b|%b|%s" i.arch i.wormhole
                (i.mode = Cyclo.Remap.With_relaxation)
                i.text)
            ops))
  in
  if not traced then begin
    let attempted = Array.length ops in
    {
      Common.attempted;
      failed = timed_failed;
      problems = !problems;
      op_digest;
      metrics =
        Common.end_to_end ~passes ~setup_s ~setup_samples:setup_repeats
          ~cal_ns:timed.Inproc.cal_ns ~failed:timed_failed ~peak_rss_mb
          ~lengths:(distinct (fun r -> float_of_int r.length))
          ~periods:(distinct (fun r -> r.period));
    }
  end
  else begin
    let traced_loop =
      Inproc.run ~traced:true ~block ~op ~summarize:(summarize ~full:random)
        ops
    in
    let sums = traced_loop.Inproc.summaries in
    let traced_failed = Inproc.mismatches ~same sums timed.Inproc.summaries in
    Common.check problems "traced ops pick the untraced winners"
      (traced_failed = 0);
    Ledger.write spans_path;
    let mean f =
      Array.fold_left (fun a s -> a +. float_of_int (f s)) 0. sums
      /. float_of_int (Array.length sums)
    in
    let passes_total = Array.fold_left (fun a s -> a + s.passes) 0 sums in
    let compacted = Array.fold_left (fun a s -> a + s.compacted) 0 sums in
    let values =
      Ledger.values problems Ledger.in_process_layers
      @ [
          ("compaction.passes", mean (fun s -> s.passes));
          ( "compaction.useful_ratio",
            float_of_int compacted /. float_of_int (max 1 passes_total) );
          ("simulator.messages", mean (fun s -> s.messages));
          ("export.bytes", mean (fun s -> s.bytes));
          ( "trace.overhead_ratio",
            Inproc.seconds traced_loop /. Inproc.seconds timed );
        ]
    in
    let attempted = Array.length ops + Array.length sums in
    {
      Common.attempted;
      failed = timed_failed + traced_failed;
      problems = !problems;
      op_digest;
      metrics = Common.per_layer ~samples:(Array.length sums) values;
    }
  end
