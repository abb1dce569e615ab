(* The paper's lemmas and theorem as direct executable properties, one
   suite per claim, over seeded random CSDFGs and machines.  These
   overlap deliberately with the behavioural tests elsewhere: each test
   here states one claim of the paper in isolation. *)

module Csdfg = Dataflow.Csdfg
module Retiming = Dataflow.Retiming
module Schedule = Cyclo.Schedule
module Startup = Cyclo.Startup
module Rotation = Cyclo.Rotation
module Timing = Cyclo.Timing
module Validator = Cyclo.Validator

let architectures =
  [|
    Topology.linear_array 4;
    Topology.ring 5;
    Topology.complete 4;
    Topology.mesh ~rows:2 ~cols:3;
    Topology.hypercube 2;
  |]

let graph_of_seed seed =
  Workloads.Random_gen.generate_connected
    ~params:{ Workloads.Random_gen.default with nodes = 8; feedback_edges = 2 }
    ~seed ()

let arch_of_seed seed = architectures.(abs seed mod Array.length architectures)
let seed_arb = QCheck.int_range 0 5_000
let pair_arb = QCheck.pair seed_arb seed_arb

(* --- Lemma 4.1: rotation preserves schedule length and legality ----- *)

let lemma_4_1 =
  QCheck.Test.make ~count:120
    ~name:"Lemma 4.1: the rotated schedule has the same length and is legal"
    pair_arb
    (fun (gs, as_) ->
      let s = Startup.run_on (graph_of_seed gs) (arch_of_seed as_) in
      match Rotation.start s with
      | Error _ -> QCheck.assume_fail ()
      | Ok rot ->
          let fb = Rotation.apply_fallback rot in
          (* multi-cycle overhang may lengthen the fallback; Lemma 4.1
             proper applies when the rotated nodes are re-placed at row L
             without overhang *)
          Schedule.length fb >= Schedule.length s - 1
          && Validator.is_legal fb)

let lemma_4_1_exact_for_unit_rows =
  QCheck.Test.make ~count:120
    ~name:"Lemma 4.1 (exact): unit-time first rows keep the length equal"
    pair_arb
    (fun (gs, as_) ->
      let g = graph_of_seed gs in
      let s = Startup.run_on g (arch_of_seed as_) in
      let unit_row =
        List.for_all (fun v -> Csdfg.time g v = 1) (Schedule.first_row s)
      in
      if not unit_row then QCheck.assume_fail ()
      else
        match Rotation.start s with
        | Error _ -> QCheck.assume_fail ()
        | Ok rot ->
            Schedule.length (Rotation.apply_fallback rot) = Schedule.length s)

(* --- Lemma 4.2: AN is a safe earliest start --------------------------- *)

let lemma_4_2 =
  QCheck.Test.make ~count:120
    ~name:"Lemma 4.2: placing a rotated node at >= AN keeps every in-edge legal"
    pair_arb
    (fun (gs, as_) ->
      let s = Startup.run_on (graph_of_seed gs) (arch_of_seed as_) in
      match Rotation.start s with
      | Error _ -> QCheck.assume_fail ()
      | Ok rot -> (
          match rot.Rotation.rotated with
          | [] -> QCheck.assume_fail ()
          | v :: _ ->
              let base = rot.Rotation.base in
              let target = max 1 (rot.Rotation.previous_length - 1) in
              let preds = (Cyclo.Remap.neighbourhood base v).preds in
              List.for_all
                (fun pe ->
                  let an =
                    Timing.anticipation (Schedule.comm base) ~pe
                      ~target_length:target preds
                  in
                  let cb =
                    Schedule.first_free_slot base ~pe ~from:an
                      ~span:(Schedule.duration base ~node:v ~pe)
                  in
                  let placed = Schedule.assign base ~node:v ~cb ~pe in
                  (* every in-edge of v from an assigned producer obeys the
                     dependence rule at the target length *)
                  List.for_all
                    (fun e ->
                      let u = e.Digraph.Graph.src in
                      u = v
                      || (not (Schedule.is_assigned placed u))
                      || Schedule.cb placed v
                         + (Schedule.delay placed e * target)
                         >= Schedule.ce placed u + Timing.edge_cost placed e + 1)
                    (Csdfg.pred (Schedule.dfg placed) v))
                (List.init (Schedule.n_processors s) Fun.id)))

(* --- Lemma 4.3: PSL is exact (legal at PSL, illegal below) ----------- *)

let lemma_4_3 =
  QCheck.Test.make ~count:150
    ~name:"Lemma 4.3: required_length is the exact legality threshold"
    pair_arb
    (fun (gs, as_) ->
      let s = Startup.run_on (graph_of_seed gs) (arch_of_seed as_) in
      let needed = Timing.required_length s in
      let at_needed = Schedule.set_length s needed in
      let legal_at = Validator.is_legal at_needed in
      let tight =
        (* shrinking below the threshold must break legality whenever the
           threshold exceeds the occupied rows (otherwise set_length
           refuses, which is the rows binding instead) *)
        if needed > Schedule.rows_needed s then begin
          let below = Schedule.set_length s (needed - 1) in
          not (Validator.is_legal below)
        end
        else true
      in
      legal_at && tight)

(* --- Theorem 4.4: monotone without relaxation, either scoring --------- *)

let theorem_4_4 scoring name =
  QCheck.Test.make ~count:80 ~name pair_arb (fun (gs, as_) ->
      let r =
        Cyclo.Compaction.run_on ~mode:Cyclo.Remap.Without_relaxation ~scoring
          ~passes:10
          (graph_of_seed gs) (arch_of_seed as_)
      in
      let rec monotone prev = function
        | [] -> true
        | e :: rest ->
            e.Cyclo.Compaction.length <= prev
            && monotone e.Cyclo.Compaction.length rest
      in
      monotone
        (Schedule.length r.Cyclo.Compaction.startup)
        r.Cyclo.Compaction.trace)

(* --- §2: retiming algebra -------------------------------------------- *)

(* Rotations retime the schedule they act on; the pipeline reads the
   composed retiming back off the schedule, normalised (the random
   graphs are connected, so one component). *)
let retiming_composition =
  QCheck.Test.make ~count:100
    ~name:"§2: composed rotations are recovered exactly by inference"
    seed_arb
    (fun seed ->
      let g = graph_of_seed seed in
      let rng = Random.State.make [| seed |] in
      (* apply up to 4 random legal single-node rotations *)
      let expected = Array.make (Csdfg.n_nodes g) 0 in
      let legal_after v =
        let r = Array.copy expected in
        r.(v) <- r.(v) + 1;
        Retiming.is_legal g r
      in
      let rec spin s k =
        if k = 0 then s
        else begin
          match List.filter legal_after (Csdfg.nodes g) with
          | [] -> s
          | candidates ->
              let v =
                List.nth candidates
                  (Random.State.int rng (List.length candidates))
              in
              expected.(v) <- expected.(v) + 1;
              spin (Schedule.retime s [ v ]) (k - 1)
        end
      in
      let s = spin (Startup.run_on g (arch_of_seed seed)) 4 in
      let lowest = Array.fold_left min max_int expected in
      (Cyclo.Pipeline.build s).Cyclo.Pipeline.retiming
      = Array.map (fun r -> r - lowest) expected)

(* --- the io layer never crashes on junk ------------------------------- *)

let parser_total =
  QCheck.Test.make ~count:300
    ~name:"Io.of_string is total: junk yields Error, never an exception"
    QCheck.(string_of_size (QCheck.Gen.int_range 0 200))
    (fun junk ->
      match Dataflow.Io.of_string junk with
      | Ok _ | Error _ -> true
      | exception _ -> false)

let suite name tests =
  (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  Alcotest.run "paper-invariants"
    [
      suite "lemma-4.1" [ lemma_4_1; lemma_4_1_exact_for_unit_rows ];
      suite "lemma-4.2" [ lemma_4_2 ];
      suite "lemma-4.3" [ lemma_4_3 ];
      suite "theorem-4.4"
        [
          theorem_4_4 Cyclo.Remap.Pressure_first
            "Theorem 4.4 under pressure-first scoring";
          theorem_4_4 Cyclo.Remap.Earliest_step
            "Theorem 4.4 under earliest-step scoring";
        ];
      suite "retiming" [ retiming_composition ];
      suite "totality" [ parser_total ];
    ]
