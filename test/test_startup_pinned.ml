(* Start-up pinned schedule by schedule.  Each digest is the MD5 of the
   [Schedule.signature]s of [Startup.run] over one graph family on one
   machine under one communication model, for every priority strategy,
   one signature per line.  A second table pins the decision journal the
   sweep records on the suite.  They were captured while the sweep still
   kept its state in a persistent [Schedule.t], so a change to how the
   sweep stores placements, breaks ready-queue ties or names a rejected
   slot's holder shows here.  A failing row prints the actual digests. *)

module Csdfg = Dataflow.Csdfg
module Schedule = Cyclo.Schedule
module Comm = Cyclo.Comm
module Startup = Cyclo.Startup
module Priority = Cyclo.Priority
module Random_gen = Workloads.Random_gen

let topology spec = Result.get_ok (Topology.of_spec spec)

let families =
  lazy
    [
      ("suite", List.map snd (Workloads.Suite.all ()));
      ( "connected",
        List.init 40 (fun seed ->
            Random_gen.generate_connected
              ~params:{ Random_gen.default with nodes = 8 + (seed mod 17) }
              ~seed ()) );
      ( "layered",
        List.mapi
          (fun i nodes -> Random_gen.layered ~max_time:8 ~nodes ~seed:(i + 1) ())
          [ 200; 500; 800; 1100; 1400; 1700 ] );
    ]

let strategies =
  [ Priority.Pf; Priority.Static_level; Priority.Mobility_only; Priority.Fifo ]

(* Store-and-forward, wormhole, and store-and-forward on processors of
   speeds 1, 2, 3, 1, 2, 3, ... *)
let models topo =
  let np = Topology.n_processors topo in
  [
    (Comm.of_topology topo, None);
    (Comm.wormhole topo, None);
    (Comm.of_topology topo, Some (Array.init np (fun p -> 1 + (p mod 3))));
  ]

let md5_lines lines = Digest.to_hex (Digest.string (String.concat "\n" lines))

let schedule_digests family machine =
  let graphs = List.assoc family (Lazy.force families) in
  List.map
    (fun (comm, speeds) ->
      md5_lines
        (List.concat_map
           (fun priority_strategy ->
             List.map
               (fun g ->
                 Schedule.signature
                   (Startup.run ~priority_strategy ?speeds g comm))
               graphs)
           strategies))
    (models (topology machine))

let journal_digest machine =
  let comm = Comm.of_topology (topology machine) in
  md5_lines
    (List.map
       (fun (_, g) ->
         Obs.Journal.enable ();
         ignore (Startup.run g comm);
         Obs.Journal.disable ();
         let events = Obs.Journal.events () in
         Obs.Journal.reset ();
         Obs.Journal.to_jsonl events)
       (Workloads.Suite.all ()))

(* (family, machine, [store-and-forward; wormhole; speeds]) *)
let schedule_golden =
  [
    ( "suite",
      "linear:3",
      [
        "3c1813d433629acdeda36ec071ef9f21";
        "3c1813d433629acdeda36ec071ef9f21";
        "29c660e41655effb02fad86eb8bfa952";
      ] );
    ( "suite",
      "linear:8",
      [
        "68b0f8f6ba1ff94e26f0390a9edfe5b5";
        "68b0f8f6ba1ff94e26f0390a9edfe5b5";
        "20232eee621fa662c9b5ba61ffa00c89";
      ] );
    ( "suite",
      "ring:8",
      [
        "62f660a3a30318a394a654a53a339762";
        "62f660a3a30318a394a654a53a339762";
        "c75d211744d43a5b62457a472e805348";
      ] );
    ( "suite",
      "mesh:2x4",
      [
        "ebfd2c274893b8d8d88334d3fb5b5d22";
        "ebfd2c274893b8d8d88334d3fb5b5d22";
        "274f7888863690a472e547df891b1d52";
      ] );
    ( "suite",
      "hypercube:3",
      [
        "c3cd9d2b1be248c9e74db53bd863f156";
        "c3cd9d2b1be248c9e74db53bd863f156";
        "fa60df332f326a8f7471334a58762bda";
      ] );
    ( "suite",
      "complete:8",
      [
        "058de7a5424119c7fcc0f5b0ddfc64f8";
        "058de7a5424119c7fcc0f5b0ddfc64f8";
        "cdf78e79c2012115b438f198860c98a0";
      ] );
    ( "connected",
      "linear:3",
      [
        "b4b630fcad4c363c55b9e15d4b8d8495";
        "ccbfe99e51cfe704b0a09df9cae07598";
        "aeb48a3bde83b2b48cad4b6aa1d77291";
      ] );
    ( "connected",
      "linear:8",
      [
        "a9d20a43b824a5bcc67f5db2ae08c1f6";
        "885c036817ca263941ef197c4398e8ef";
        "bb4ba792cfcfa56a5610354564e6d0ee";
      ] );
    ( "connected",
      "ring:8",
      [
        "08d3b0b531ab2d0e0526831aedf131bb";
        "7abc1784d1d62f152f232acb30a91bc3";
        "c677c3a631ee2b5b049fd16b0a486b5b";
      ] );
    ( "connected",
      "mesh:2x4",
      [
        "242d24a0f30b71557024ab048a6b1a49";
        "ed613a978bed50538a184e455f2d8c98";
        "875c6ab29724d6f0b1498b1ed76447e8";
      ] );
    ( "connected",
      "hypercube:3",
      [
        "8f3e85d372bc4274ee2633ce2e50a0d2";
        "0c65233217118a6030f1732f182ccc42";
        "5abb069d92d7a7373f05312a20b820e1";
      ] );
    ( "connected",
      "complete:8",
      [
        "a55d1aacef208fe02b5476fd6a28fa89";
        "a55d1aacef208fe02b5476fd6a28fa89";
        "88abfc1bf966a34ef6e6a6963b31a4bb";
      ] );
    ( "layered",
      "linear:3",
      [
        "e1f26be05a0c3855e65d2e6f86c43143";
        "77d26063811c22054a146d937d00d1a5";
        "9af65bd0496ea35fe0ec967bcf4debad";
      ] );
    ( "layered",
      "linear:8",
      [
        "66aed99750373275fcd66e7ecea34cab";
        "a4070b5befe09fc6fd059085c5a3654e";
        "e2e0f2a5254e68685df0995da760aab0";
      ] );
    ( "layered",
      "ring:8",
      [
        "0704aa9d734858b2fc64dc80003415f9";
        "9f768b9474188e8c506f2b605d92f734";
        "b98613c33cc1eef4a037dfbdb52821c8";
      ] );
    ( "layered",
      "mesh:2x4",
      [
        "589dd533414057421415914f06189864";
        "8418f4df149ad1ef33fdbdb31bf59a08";
        "cfa80c54061ba71731e5035d6279bef6";
      ] );
    ( "layered",
      "hypercube:3",
      [
        "4d05f80d2e713e2d45f88b8680ea8f2c";
        "ab8e3be136c47621c4b52b2c37c50dbc";
        "5394759a6c40d17e11843a2242d0a5b2";
      ] );
    ( "layered",
      "complete:8",
      [
        "8fec719a30d76395ac13289b5706714a";
        "8fec719a30d76395ac13289b5706714a";
        "5ae25afa86ba1b2a1b14753660aa49ae";
      ] );
  ]

let journal_golden =
  [
    ("suite", "linear:3", [ "4ccc0859c5fb9d8ba968ff8912b26531" ]);
    ("suite", "mesh:2x4", [ "3559b76a14f434e6e4f2825078fcf842" ]);
    ("suite", "complete:8", [ "ce27c91abb1de9a863ec6de7033de66c" ]);
  ]

let check_rows golden actual_of =
  let actual =
    List.map (fun (family, machine, _) -> actual_of family machine) golden
  in
  let failed =
    List.filter_map
      (fun ((family, machine, expected), got) ->
        if expected = got then None
        else
          Some
            (Printf.sprintf "(%S, %S, [ %s ]);" family machine
               (String.concat "; " (List.map (Printf.sprintf "%S") got))))
      (List.combine golden actual)
  in
  if failed <> [] then
    Alcotest.failf "%d row(s) differ; actual:\n%s" (List.length failed)
      (String.concat "\n" failed)

let test_schedules () = check_rows schedule_golden schedule_digests

let test_journal () =
  check_rows journal_golden (fun family machine ->
      assert (family = "suite");
      [ journal_digest machine ])

let () =
  Alcotest.run "startup_pinned"
    [
      ( "pinned",
        [
          Alcotest.test_case "schedules of every strategy and model" `Quick
            test_schedules;
          Alcotest.test_case "start-up journal on the suite" `Quick
            test_journal;
        ] );
    ]
