(* Property-based tests (qcheck, registered via qcheck-alcotest).

   Random legal CSDFGs come from Workloads.Random_gen; random
   architectures are drawn from the standard gallery.  The key oracles:
   - the independent validator accepts every schedule the library emits;
   - the closed-form dependence rule agrees with brute-force simulation,
     including on randomly perturbed schedules;
   - the paper's theorems hold on random inputs. *)

module Csdfg = Dataflow.Csdfg
module Retiming = Dataflow.Retiming
module Schedule = Cyclo.Schedule
module Comm = Cyclo.Comm
module Startup = Cyclo.Startup
module Compaction = Cyclo.Compaction
module Remap = Cyclo.Remap
module Validator = Cyclo.Validator

let architectures =
  [|
    Topology.linear_array 4;
    Topology.ring 5;
    Topology.complete 4;
    Topology.mesh ~rows:2 ~cols:3;
    Topology.hypercube 2;
    Topology.star 4;
    Topology.binary_tree 5;
  |]

let small_params =
  { Workloads.Random_gen.default with nodes = 8; feedback_edges = 2 }

let graph_of_seed ?(params = small_params) seed =
  Workloads.Random_gen.generate_connected ~params ~seed ()

let arch_of_seed seed = architectures.(abs seed mod Array.length architectures)

let seed_arb = QCheck.int_range 0 10_000

let pair_arb = QCheck.pair seed_arb seed_arb

(* ------------------------------------------------------------------ *)
(* Generator sanity                                                     *)
(* ------------------------------------------------------------------ *)

let prop_random_graphs_legal =
  QCheck.Test.make ~count:200 ~name:"random CSDFGs are legal" seed_arb
    (fun seed -> Csdfg.is_legal (graph_of_seed seed))

(* [g] with [extra] appended to its edges. *)
let with_edges g extra =
  let n = Csdfg.n_nodes g in
  Csdfg.of_graph ~name:(Csdfg.name g)
    ~labels:(Array.init n (Csdfg.label g))
    ~time:(Array.init n (Csdfg.time g))
    (Digraph.Graph.create ~n (Csdfg.edges g @ extra))

(* ------------------------------------------------------------------ *)
(* Legality: the one-pass check against the cycle enumeration           *)
(* ------------------------------------------------------------------ *)

(* Random legal graphs with one to three zero-delay edges added (self-
   loops included), which often close zero-delay cycles.  Against
   Johnson's enumeration of the zero-delay subgraph, [Csdfg.validate]
   must agree on legality, name a genuine zero-delay cycle from its
   smallest node, and name the enumeration's cycle when it is the only
   one. *)
let prop_validate_names_zero_delay_cycle =
  QCheck.Test.make ~count:1000
    ~name:"validate names a zero-delay cycle (oracle: enumeration)" seed_arb
    (fun seed ->
      let rng = Random.State.make [| seed; 0x2d0 |] in
      let g = graph_of_seed seed in
      let n = Csdfg.n_nodes g in
      let g =
        with_edges g
          (List.init
             (1 + Random.State.int rng 3)
             (fun _ ->
               let src = Random.State.int rng n in
               let dst = Random.State.int rng n in
               let label = { Csdfg.delay = 0; volume = 1 } in
               { Digraph.Graph.src; dst; label }))
      in
      let zero = Csdfg.zero_delay_graph g in
      let named =
        match Csdfg.validate g with
        | Ok () -> None
        | Error [ Csdfg.Zero_delay_cycle cycle ] -> Some cycle
        | Error _ -> QCheck.Test.fail_report "unexpected violation"
      in
      match (Oracle.Cycles.elementary ~max_cycles:2 zero, named) with
      | [], None -> true
      | [], Some _ | _ :: _, None ->
          QCheck.Test.fail_report "legality differs from the enumeration"
      | cycles, Some cycle ->
          let hop u v =
            List.exists
              (fun e -> e.Digraph.Graph.dst = v)
              (Digraph.Graph.succ zero u)
          in
          let next = List.tl cycle @ [ List.hd cycle ] in
          List.for_all2 hop cycle next
          && List.length (List.sort_uniq compare cycle) = List.length cycle
          && List.hd cycle = List.fold_left min max_int cycle
          && match cycles with [ only ] -> cycle = only | _ -> true)

(* ------------------------------------------------------------------ *)
(* Retiming properties                                                  *)
(* ------------------------------------------------------------------ *)

let cycle_delays g =
  let graph = Csdfg.graph g in
  Oracle.Cycles.elementary ~max_cycles:500 graph
  |> List.map (fun cyc ->
         Oracle.Cycles.fold_cycle_weight graph cyc ~init:0 ~f:(fun acc e ->
             acc + Csdfg.delay e))

(* Rotating a set is the retiming r = 1 on the set (Definition 4.1). *)
let rotation_retiming g set =
  let r = Retiming.identity g in
  List.iter (fun v -> r.(v) <- 1) set;
  r

let prop_rotation_preserves_cycle_delays =
  QCheck.Test.make ~count:100
    ~name:"rotation preserves every cycle's total delay" seed_arb (fun seed ->
      let g = graph_of_seed seed in
      (* rotate a node whose in-edges all carry delay, if any *)
      let rotatable =
        List.filter
          (fun v -> Retiming.is_legal g (rotation_retiming g [ v ]))
          (Csdfg.nodes g)
      in
      match rotatable with
      | [] -> QCheck.assume_fail ()
      | v :: _ ->
          let g' = Retiming.apply g (rotation_retiming g [ v ]) in
          cycle_delays g = cycle_delays g')

let prop_rotation_keeps_legality =
  QCheck.Test.make ~count:100 ~name:"legal rotations keep the CSDFG legal"
    seed_arb (fun seed ->
      let g = graph_of_seed seed in
      match
        List.filter
          (fun v -> Retiming.is_legal g (rotation_retiming g [ v ]))
          (Csdfg.nodes g)
      with
      | [] -> QCheck.assume_fail ()
      | v :: _ -> Csdfg.is_legal (Retiming.apply g (rotation_retiming g [ v ])))

(* A random graph; sometimes with a self-loop and a parallel edge added
   (both with a delay, so the graph stays legal), sometimes side by side
   with a second one, so it has two weakly connected components. *)
let rotation_graph rng seed =
  let params = { small_params with nodes = 8 + (seed mod 17) } in
  let g = graph_of_seed ~params seed in
  match Random.State.int rng 3 with
  | 0 -> g
  | 1 ->
      let other = { small_params with nodes = 3 + Random.State.int rng 6 } in
      Dataflow.Transform.disjoint_union g
        (graph_of_seed ~params:other (seed + 1))
  | _ ->
      let n = Csdfg.n_nodes g in
      let v = Random.State.int rng n in
      let self_loop =
        {
          Digraph.Graph.src = v;
          dst = v;
          label = { Csdfg.delay = 1; volume = 2 };
        }
      in
      let parallel =
        match Csdfg.edges g with
        | e :: _ ->
            [
              {
                e with
                Digraph.Graph.label =
                  { Csdfg.delay = 1 + Random.State.int rng 2; volume = 1 };
              };
            ]
        | [] -> []
      in
      with_edges g (self_loop :: parallel)

(* How the exported retiming was recovered before schedules carried
   their retiming: from the original and the retimed graph, edge by
   edge ([r(dst) = r(src) + d - d']), each weakly connected component
   shifted to minimum 0; [None] when no retiming explains the delays. *)
let infer ~original ~retimed =
  let n = Csdfg.n_nodes original in
  let pairs = List.combine (Csdfg.edges original) (Csdfg.edges retimed) in
  let delta = Array.make n None and component = Array.make n (-1) in
  let adj = Array.make n [] in
  List.iter
    (fun ((a : Csdfg.attr Digraph.Graph.edge), b) ->
      let diff = Csdfg.delay a - Csdfg.delay b in
      let u = a.Digraph.Graph.src and v = a.Digraph.Graph.dst in
      adj.(u) <- (v, diff) :: adj.(u);
      adj.(v) <- (u, -diff) :: adj.(v))
    pairs;
  let consistent = ref true in
  let rec visit comp v value =
    match delta.(v) with
    | Some existing -> if existing <> value then consistent := false
    | None ->
        delta.(v) <- Some value;
        component.(v) <- comp;
        List.iter (fun (w, diff) -> visit comp w (value + diff)) adj.(v)
  in
  let n_comps = ref 0 in
  for v = 0 to n - 1 do
    if delta.(v) = None then begin
      visit !n_comps v 0;
      incr n_comps
    end
  done;
  if not !consistent then None
  else begin
    let raw = Array.map (function Some x -> x | None -> 0) delta in
    let low = Array.make !n_comps max_int in
    Array.iteri
      (fun v x -> low.(component.(v)) <- min low.(component.(v)) x)
      raw;
    Some (Array.mapi (fun v x -> x - low.(component.(v))) raw)
  end

(* A table on [s]'s graph and retiming with every node placed without
   regard to dependences: its first row may hold a node with a
   zero-delay in-edge from outside the row, so rotating it is illegal. *)
let scrambled rng s =
  let g = Schedule.dfg s in
  let table =
    Schedule.empty ~retiming:(Schedule.retiming s) g (Schedule.comm s)
  in
  List.fold_left
    (fun t v ->
      let pe = Random.State.int rng (Schedule.n_processors s) in
      let span = Schedule.duration t ~node:v ~pe in
      let cb =
        Schedule.first_free_slot t ~pe ~from:(1 + Random.State.int rng 3) ~span
      in
      Schedule.assign t ~node:v ~cb ~pe)
    table (Csdfg.nodes g)
  |> Schedule.normalize

(* Applying [compose a b] equals applying [a] then [b]. *)
let compose a b = Array.mapi (fun i x -> x + b.(i)) a

(* Compaction passes chained on random legal graphs, against the
   reference: [Retiming.apply] of the sum of every applied pass's
   rotated-row indicator. *)
let prop_retiming_vector_matches_apply =
  QCheck.Test.make ~count:150
    ~name:
      "retiming vector = apply of rotated rows; refusals = is_legal; export \
       = infer"
    pair_arb (fun (seed, sseed) ->
      let rng = Random.State.make [| seed; sseed |] in
      let g = rotation_graph rng seed in
      let comm = Comm.of_topology (arch_of_seed sseed) in
      let mode =
        if Random.State.bool rng then Remap.With_relaxation
        else Remap.Without_relaxation
      in
      let delays s = List.map (Schedule.delay s) (Csdfg.edges g) in
      let rec chain s reference k =
        let row = Schedule.first_row (Schedule.normalize s) in
        let next, outcome = Compaction.pass mode s in
        let reference =
          if outcome = Compaction.Stuck then reference
          else compose reference (rotation_retiming g row)
        in
        let expected =
          List.map Csdfg.delay (Csdfg.edges (Retiming.apply g reference))
        in
        if delays next <> expected then
          QCheck.Test.fail_reportf "pass %d: retimed delays differ" k;
        let exported = (Cyclo.Pipeline.build next).Cyclo.Pipeline.retiming in
        let retimed = Retiming.apply g (Schedule.retiming next) in
        if infer ~original:g ~retimed <> Some exported then
          QCheck.Test.fail_reportf "pass %d: exported retiming differs" k;
        let t = scrambled rng next in
        let legal =
          Retiming.is_legal g
            (compose (Schedule.retiming t)
               (rotation_retiming g (Schedule.first_row t)))
        in
        if Result.is_ok (Cyclo.Rotation.start t) <> legal then
          QCheck.Test.fail_reportf "pass %d: rotation refused <> illegal" k;
        k = 6 || chain next reference (k + 1)
      in
      chain (Startup.run g comm) (Retiming.identity g) 1)

let prop_min_period_witness =
  QCheck.Test.make ~count:60
    ~name:"min_period witness is legal and achieves its period" seed_arb
    (fun seed ->
      let g = graph_of_seed seed in
      let period, r = Retiming.min_period g in
      Retiming.is_legal g r
      && Retiming.clock_period (Retiming.apply g r) <= period)

(* ------------------------------------------------------------------ *)
(* Scheduling properties                                                *)
(* ------------------------------------------------------------------ *)

let prop_startup_always_legal =
  QCheck.Test.make ~count:150 ~name:"start-up schedules pass the validator"
    pair_arb (fun (gseed, aseed) ->
      let s = Startup.run_on (graph_of_seed gseed) (arch_of_seed aseed) in
      Validator.is_legal s)

let prop_startup_matches_simulation =
  QCheck.Test.make ~count:80
    ~name:"closed-form check = simulation on start-up schedules" pair_arb
    (fun (gseed, aseed) ->
      let s = Startup.run_on (graph_of_seed gseed) (arch_of_seed aseed) in
      Validator.simulate s ~iterations:5 = Ok ())

let prop_compaction_never_worse =
  QCheck.Test.make ~count:60 ~name:"compaction best <= start-up" pair_arb
    (fun (gseed, aseed) ->
      let r =
        Compaction.run_on ~passes:12
          (graph_of_seed gseed) (arch_of_seed aseed)
      in
      Schedule.length r.Compaction.best <= Schedule.length r.Compaction.startup)

let prop_theorem_4_4 =
  QCheck.Test.make ~count:60
    ~name:"Theorem 4.4: without relaxation lengths never increase" pair_arb
    (fun (gseed, aseed) ->
      let r =
        Compaction.run_on ~mode:Remap.Without_relaxation ~passes:12
          (graph_of_seed gseed) (arch_of_seed aseed)
      in
      let rec monotone prev = function
        | [] -> true
        | e :: rest ->
            e.Compaction.length <= prev && monotone e.Compaction.length rest
      in
      monotone (Schedule.length r.Compaction.startup) r.Compaction.trace)

let prop_compaction_respects_iteration_bound =
  QCheck.Test.make ~count:60 ~name:"schedules never beat the iteration bound"
    pair_arb (fun (gseed, aseed) ->
      let g = graph_of_seed gseed in
      let r = Compaction.run_on ~passes:12 g (arch_of_seed aseed) in
      match Dataflow.Iteration_bound.exact_ceil g with
      | None -> true
      | Some bound -> Schedule.length r.Compaction.best >= bound)

let prop_every_intermediate_state_legal =
  (* Compaction.run with validate:true asserts internally; surviving the
     call is the property. *)
  QCheck.Test.make ~count:50 ~name:"every intermediate schedule is legal"
    pair_arb (fun (gseed, aseed) ->
      let r =
        Compaction.run_on ~validate:true ~passes:10
          (graph_of_seed gseed) (arch_of_seed aseed)
      in
      Validator.is_legal r.Compaction.final)

(* ------------------------------------------------------------------ *)
(* Perturbation oracle: check = simulate on arbitrary (possibly bad)    *)
(* schedules                                                            *)
(* ------------------------------------------------------------------ *)

let perturb rng s =
  (* Move one random node to a random free slot; the result may or may
     not be legal — both checkers must agree either way. *)
  let dfg = Schedule.dfg s in
  let n = Csdfg.n_nodes dfg in
  if n = 0 then s
  else begin
    let v = Random.State.int rng n in
    let s' = Schedule.unassign s v in
    let pe = Random.State.int rng (Schedule.n_processors s) in
    let cb = 1 + Random.State.int rng (Schedule.length s + 2) in
    let span = Csdfg.time dfg v in
    let cb = Schedule.first_free_slot s' ~pe ~from:cb ~span in
    Schedule.assign s' ~node:v ~cb ~pe
  end

(* The naive reference for [Validator.check]: the same rules over lists,
   with all-pairs overlaps and every placement read through the
   schedule's accessors. *)
let reference_check s =
  let dfg = Schedule.dfg s in
  let nodes = Csdfg.nodes dfg in
  match List.filter (fun v -> not (Schedule.is_assigned s v)) nodes with
  | _ :: _ as missing ->
      Error (List.map (fun v -> Validator.Unassigned v) missing)
  | [] -> (
      let len = Schedule.length s in
      let out_of_table =
        List.filter_map
          (fun v ->
            if Schedule.ce s v > len then Some (Validator.Out_of_table v)
            else None)
          nodes
      in
      let overlaps =
        List.concat_map
          (fun a ->
            List.filter_map
              (fun b ->
                if
                  a < b
                  && Schedule.pe s a = Schedule.pe s b
                  && Schedule.cb s a <= Schedule.ce s b
                  && Schedule.cb s b <= Schedule.ce s a
                then Some (Validator.Overlap (a, b))
                else None)
              nodes)
          nodes
      in
      let r = Schedule.retiming s in
      let dependences =
        List.filter_map
          (fun (e : Csdfg.attr Digraph.Graph.edge) ->
            let u = e.Digraph.Graph.src and v = e.Digraph.Graph.dst in
            let d = Csdfg.delay e + r.(u) - r.(v) in
            let have = Schedule.cb s v + (d * len) in
            let want = Schedule.ce s u + Cyclo.Timing.edge_cost s e + 1 in
            if have < want then Some (Validator.Dependence (e, want - have))
            else None)
          (Csdfg.edges dfg)
      in
      match out_of_table @ overlaps @ dependences with
      | [] -> Ok ()
      | l -> Error l)

let prop_check_equals_reference =
  QCheck.Test.make ~count:300
    ~name:"check = naive reference on perturbed, shifted, partial schedules"
    pair_arb (fun (gseed, aseed) ->
      let rng = Random.State.make [| aseed; gseed |] in
      let g = graph_of_seed gseed in
      let topo = arch_of_seed aseed in
      let np = Topology.n_processors topo in
      let speeds =
        if Random.State.bool rng then None
        else Some (Array.init np (fun _ -> 1 + Random.State.int rng 3))
      in
      let s =
        if Random.State.bool rng then
          Startup.run ?speeds g (Comm.of_topology topo)
        else
          (Compaction.run ?speeds ~passes:(1 + Random.State.int rng 5)
             ~validate:false g (Comm.of_topology topo))
            .Compaction.final
      in
      let rec churn s k =
        if k = 0 then s
        else
          let v = Random.State.int rng (Csdfg.n_nodes g) in
          let s =
            match Random.State.int rng 7 with
            | 0 when Schedule.is_assigned s v -> Schedule.unassign s v
            | 1 -> Schedule.normalize s
            | 2 ->
                (* dearer links: the same placements may now be too tight *)
                Schedule.with_comm s
                  (Comm.scaled topo ~factor:(2 + Random.State.int rng 2))
            | 3 ->
                (* re-timed delays, negative ones included *)
                Schedule.retime s
                  (List.filter
                     (fun _ -> Random.State.bool rng)
                     (Csdfg.nodes g))
            | 4 when Schedule.is_assigned s v -> (
                (* a start near row 2^40 (and a table as long): the
                   check's sort must not grow with the row range *)
                let far = (1 lsl 40) + Random.State.int rng 4 in
                try
                  Schedule.assign (Schedule.unassign s v) ~node:v ~cb:far
                    ~pe:(Schedule.pe s v)
                with Invalid_argument _ -> s)
            | _ -> (
                (* a move onto an unassigned node, or onto a slot too
                   short on a slower processor, keeps [s] *)
                try perturb rng s with Invalid_argument _ -> s)
          in
          churn s (k - 1)
      in
      let s = churn s (Random.State.int rng 5) in
      Validator.check s = reference_check s)

let prop_check_equals_simulate_on_perturbed =
  QCheck.Test.make ~count:120
    ~name:"closed-form check = simulation on perturbed schedules" pair_arb
    (fun (gseed, aseed) ->
      let s = Startup.run_on (graph_of_seed gseed) (arch_of_seed aseed) in
      let rng = Random.State.make [| gseed; aseed |] in
      let s = perturb rng (perturb rng s) in
      let closed = Validator.check s = Ok () in
      let brute = Validator.simulate s ~iterations:6 = Ok () in
      closed = brute)

(* ------------------------------------------------------------------ *)
(* Transform properties                                                 *)
(* ------------------------------------------------------------------ *)

let prop_io_roundtrip =
  QCheck.Test.make ~count:100 ~name:"text format round-trips" seed_arb
    (fun seed ->
      let g = graph_of_seed seed in
      match Dataflow.Io.of_string (Dataflow.Io.to_string g) with
      | Error _ -> false
      | Ok g' -> Dataflow.Io.to_string g = Dataflow.Io.to_string g')

let prop_slowdown_legal_and_scales =
  QCheck.Test.make ~count:80 ~name:"slow-down keeps legality, scales delays"
    (QCheck.pair seed_arb (QCheck.int_range 1 4))
    (fun (seed, k) ->
      let g = graph_of_seed seed in
      let g' = Dataflow.Transform.slowdown g k in
      Csdfg.is_legal g'
      && List.for_all2
           (fun e e' -> Csdfg.delay e' = k * Csdfg.delay e)
           (Csdfg.edges g) (Csdfg.edges g'))

let prop_unfold_legal =
  QCheck.Test.make ~count:60 ~name:"unfolding keeps legality and size"
    (QCheck.pair seed_arb (QCheck.int_range 1 3))
    (fun (seed, f) ->
      let g = graph_of_seed seed in
      let g' = Dataflow.Transform.unfold g f in
      Csdfg.is_legal g'
      && Csdfg.n_nodes g' = f * Csdfg.n_nodes g
      && Csdfg.n_edges g' = f * Csdfg.n_edges g)

let prop_unfold_preserves_iteration_bound =
  (* Parhi's classical result: unfolding by f multiplies the iteration
     bound per unfolded iteration by exactly f (the rate per original
     iteration is invariant).  Checked with exact fractions. *)
  QCheck.Test.make ~count:50 ~name:"unfolding preserves the iteration bound"
    (QCheck.pair seed_arb (QCheck.int_range 1 3))
    (fun (seed, f) ->
      let g = graph_of_seed seed in
      let gu = Dataflow.Transform.unfold g f in
      match
        (Dataflow.Iteration_bound.exact g, Dataflow.Iteration_bound.exact gu)
      with
      | None, None -> true
      | Some (t, d), Some (tu, du) ->
          (* tu/du = f * t/d  <=>  tu * d = f * t * du *)
          tu * d = f * t * du
      | _ -> false)

let random_topology seed =
  (* random connected machine: a spanning tree plus random extra links *)
  let rng = Random.State.make [| seed; 0x70b0 |] in
  let n = 3 + Random.State.int rng 6 in
  let tree =
    List.init (n - 1) (fun i ->
        let child = i + 1 in
        (Random.State.int rng child, child))
  in
  let extras =
    List.concat
      (List.init n (fun a ->
           List.filteri
             (fun b _ -> b > a && Random.State.float rng 1.0 < 0.2)
             (List.init n (fun b -> b))
           |> List.map (fun b -> (a, b))))
  in
  Topology.of_links ~name:(Printf.sprintf "random-topo-%d" seed) ~n
    (tree @ extras)

let prop_random_topologies_well_formed =
  QCheck.Test.make ~count:100 ~name:"random machines: metric + route sanity"
    seed_arb
    (fun seed ->
      let t = random_topology seed in
      let n = Topology.n_processors t in
      let ok = ref true in
      for p = 0 to n - 1 do
        for q = 0 to n - 1 do
          if Topology.hops t p q <> Topology.hops t q p then ok := false;
          if p = q && Topology.hops t p q <> 0 then ok := false;
          let r = Topology.route t ~src:p ~dst:q in
          if List.length r <> Topology.hops t p q + 1 then ok := false
        done
      done;
      !ok)

let prop_scheduling_on_random_topologies =
  QCheck.Test.make ~count:60
    ~name:"cyclo-compaction stays legal on random machines" pair_arb
    (fun (gseed, tseed) ->
      let g = graph_of_seed gseed in
      let t = random_topology tseed in
      let r = Compaction.run_on ~passes:10 g t in
      Validator.is_legal r.Compaction.best)

let prop_repair_preserves_processors =
  QCheck.Test.make ~count:60 ~name:"baseline repair keeps assignments legal"
    pair_arb (fun (gseed, aseed) ->
      let g = graph_of_seed gseed in
      let topo = arch_of_seed aseed in
      let zero = Comm.zero ~n:(Topology.n_processors topo) ~name:"z" in
      let oblivious = Startup.run g zero in
      let repaired = Cyclo.Baseline.repair oblivious (Comm.of_topology topo) in
      Validator.is_legal repaired
      && List.for_all
           (fun v -> Schedule.pe oblivious v = Schedule.pe repaired v)
           (Csdfg.nodes g))

let prop_execution_meets_static_bound =
  QCheck.Test.make ~count:50
    ~name:"event-driven execution never falls behind the static schedule"
    pair_arb
    (fun (gseed, aseed) ->
      let g = graph_of_seed gseed in
      let topo = arch_of_seed aseed in
      let best =
        (Compaction.run_on ~passes:10 ~validate:false g topo).Compaction.best
      in
      let stats = Machine.Simulator.execute best topo ~iterations:8 in
      stats.Machine.Simulator.makespan
      <= Machine.Simulator.static_bound best ~iterations:8)

let prop_wormhole_execution_meets_bound =
  QCheck.Test.make ~count:40
    ~name:"wormhole schedules sustain their static periods too" pair_arb
    (fun (gseed, aseed) ->
      let g = graph_of_seed gseed in
      let topo = arch_of_seed aseed in
      let best =
        (Compaction.run ~passes:10 ~validate:false g (Comm.wormhole topo))
          .Compaction.best
      in
      let stats =
        Machine.Simulator.execute ~transport:Machine.Simulator.Wormhole best
          topo ~iterations:8
      in
      stats.Machine.Simulator.makespan
      <= Machine.Simulator.static_bound best ~iterations:8)

let prop_pipeline_coverage =
  QCheck.Test.make ~count:60
    ~name:"prologue + kernel + epilogue cover every instance exactly once"
    pair_arb
    (fun (gseed, aseed) ->
      let g = graph_of_seed gseed in
      let best =
        (Compaction.run_on ~passes:12 ~validate:false g (arch_of_seed aseed))
          .Compaction.best
      in
      let p = Cyclo.Pipeline.build best in
      let n = 30 in
      let nodes = Csdfg.n_nodes g in
      Cyclo.Pipeline.prologue_length p
      + (nodes * (n - p.Cyclo.Pipeline.depth))
      + Cyclo.Pipeline.epilogue_length p ~n
      = nodes * n)

let prop_autotune_gap_nonnegative =
  QCheck.Test.make ~count:25
    ~name:"autotune winners have a non-negative exact gap (tiny instances)"
    seed_arb
    (fun seed ->
      let params =
        { Workloads.Random_gen.default with nodes = 5; feedback_edges = 2 }
      in
      let g = Workloads.Random_gen.generate_connected ~params ~seed () in
      let t =
        Cyclo.Portfolio.(
          polish (run_on ~k:4 ~domains:1 g (Topology.linear_array 2)))
      in
      match Cyclo.Exhaustive.optimality_gap (Cyclo.Portfolio.best t) with
      | None -> true
      | Some gap -> gap >= 0)

let suite name tests =
  (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  Alcotest.run "properties"
    [
      suite "generator" [ prop_random_graphs_legal ];
      suite "legality" [ prop_validate_names_zero_delay_cycle ];
      suite "retiming"
        [
          prop_rotation_preserves_cycle_delays;
          prop_rotation_keeps_legality;
          prop_retiming_vector_matches_apply;
          prop_min_period_witness;
        ];
      suite "scheduling"
        [
          prop_startup_always_legal;
          prop_startup_matches_simulation;
          prop_compaction_never_worse;
          prop_theorem_4_4;
          prop_compaction_respects_iteration_bound;
          prop_every_intermediate_state_legal;
        ];
      suite "oracle"
        [
          prop_check_equals_simulate_on_perturbed;
          prop_check_equals_reference;
        ];
      suite "transform"
        [
          prop_io_roundtrip;
          prop_slowdown_legal_and_scales;
          prop_unfold_legal;
          prop_unfold_preserves_iteration_bound;
          prop_repair_preserves_processors;
        ];
      suite "random-machines"
        [
          prop_random_topologies_well_formed;
          prop_scheduling_on_random_topologies;
        ];
      suite "execution"
        [
          prop_execution_meets_static_bound;
          prop_wormhole_execution_meets_bound;
        ];
      suite "composition"
        [ prop_pipeline_coverage; prop_autotune_gap_nonnegative ];
    ]
