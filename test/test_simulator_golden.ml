(* Golden digests of the simulator and the replanner.  Each run digest
   is the MD5 of the run's stats (the [pp_stats] line, then every float
   in exact hex and the busy vector), its fault report with every field
   (fault runs only) and its JSONL event stream.  They were captured
   while the fault-free and the fault-injected runs still had separate
   event loops, so any later engine change that moves one stats field or
   one event byte shows here.  A failing row prints the actual digests. *)

module Schedule = Cyclo.Schedule
module Sim = Machine.Simulator
module Faults = Machine.Faults
module Events = Machine.Events

let arches = [ "linear:8"; "mesh:2x4"; "hypercube:3" ]

let schedules =
  lazy
    (List.concat_map
       (fun arch ->
         let topo = Result.get_ok (Topology.of_spec arch) in
         List.map
           (fun (name, g) ->
             ( (name, arch),
               (topo, (Cyclo.Compaction.run_on g topo).Cyclo.Compaction.best) ))
           (Workloads.Suite.all ()))
       arches)

let schedule_of name arch = List.assoc (name, arch) (Lazy.force schedules)

let floats a =
  String.concat "," (List.map (Printf.sprintf "%h") (Array.to_list a))

let ints l = String.concat "," (List.map string_of_int l)

let stats_text (s : Sim.stats) =
  Fmt.str "%a\nperiod=%h util=%h busy=%s per_pe=%s\n" Sim.pp_stats s
    s.Sim.average_period s.Sim.utilization
    (ints (Array.to_list s.Sim.busy))
    (floats s.Sim.per_pe_utilization)

let report_text = function
  | None -> ""
  | Some (r : Faults.report) ->
      let opt f = function None -> "-" | Some x -> f x in
      Printf.sprintf
        "%s seed=%d pes=%s links=%s at=%s surviving=%d retries=%d drops=%d \
         undelivered=%d lost=%d completed=%d replayed=%d pre=%h post=%h \
         migration=%d moved=%d recovery=%d degraded=%s error=%s\n"
        r.Faults.scenario_name r.Faults.seed (ints r.Faults.failed_pes)
        (String.concat ","
           (List.map (fun (a, b) -> Printf.sprintf "%d-%d" a b)
              r.Faults.failed_links))
        (opt string_of_int r.Faults.fault_time)
        r.Faults.surviving_pes r.Faults.retries r.Faults.drops
        r.Faults.undelivered r.Faults.lost_instances
        r.Faults.completed_iterations r.Faults.replayed_iterations
        r.Faults.pre_fault_period r.Faults.post_fault_period
        r.Faults.migration_cost r.Faults.moved_nodes r.Faults.recovery_latency
        (opt string_of_int r.Faults.degraded_length)
        (opt Fun.id r.Faults.replan_error)

let run_digest ?faults ~policy ~transport (topo, s) =
  let r = Events.recorder () in
  let stats =
    Sim.execute ~policy ~transport ~recorder:r ?faults s topo ~iterations:40
  in
  Digest.to_hex
    (Digest.string
       (stats_text stats
       ^ report_text stats.Sim.faults
       ^ Events.to_jsonl (Events.events r)))

let check_rows what golden actual_of =
  List.iter
    (fun (name, arch, expected) ->
      Alcotest.(check (list string))
        (Printf.sprintf "%s %s on %s" what name arch)
        expected (actual_of name arch))
    golden

(* {2 Fault-free runs} *)

(* Per row: contention-free and FIFO links, each under store-and-forward
   then wormhole transport. *)
let clean_configs =
  [
    (Sim.Contention_free, Sim.Store_and_forward);
    (Sim.Contention_free, Sim.Wormhole);
    (Sim.Fifo_links, Sim.Store_and_forward);
    (Sim.Fifo_links, Sim.Wormhole);
  ]

let clean_golden =
  [
    ( "fig1b",
      "linear:8",
      [
        "7d8894a446c36dfb8818160746bc513c";
        "0507433c338a4c67b2482146b33bbc08";
        "fba068ac2f2a0b8ff772865be5cf4d93";
        "42f44ee1054e87265a81391408f6ab16";
      ] );
    ( "fig7",
      "linear:8",
      [
        "b25d4ce94117e6955d0f7a7a6e40822e";
        "672a80c56613403d2a0d3811ecbd7920";
        "138bd44b159d73e77104a44e07bdcce8";
        "1ea97589813b0b266b439426083efac8";
      ] );
    ( "tiny-chain",
      "linear:8",
      [
        "8ba76cc5dab07f82bc931985aecdc8e0";
        "a6c8c4ea4c024f16b0fcf5c5fff24269";
        "373c242756543564c537d9ff9d19cece";
        "f2167a2c3467e3002acb7267b151f1b6";
      ] );
    ( "self-loop",
      "linear:8",
      [
        "5b25aa32061a84aa5dc393056c26ff5c";
        "e4ccc98597daa7824e7f6b5b84f5ba51";
        "1fa1d9d5834e9783147201a677d6ad58";
        "b0ba974322d1010d39fcbd2f2484e61c";
      ] );
    ( "two-chains",
      "linear:8",
      [
        "5c58bf2b244085b7444572f340be1dac";
        "b7559fb3aeac7881440548942fa3731f";
        "8f2265fe1090547cebfaf5193e5f8357";
        "3d2443412746094e4a811ea7cd5b3221";
      ] );
    ( "elliptic",
      "linear:8",
      [
        "922317b58d01954ecb2e7fd4a90648b2";
        "f8f549064a9e816b343706c7a90bcf8e";
        "1b974c2eb9b3fa0bd9f272ec47c8c462";
        "bf2c04ebffd023a112651eafbef64fb9";
      ] );
    ( "lattice",
      "linear:8",
      [
        "46fc283fa4aca51ab50b1ca6ccb1fe74";
        "bf25eb03465caa9b8e2685bb69ce4ef9";
        "13eec9b2198eed22ab5f4ce2064d7bc3";
        "fdb395db9a2b41d1b23f2b989a0b6767";
      ] );
    ( "elliptic-slow3",
      "linear:8",
      [
        "f674bc92c3f17720f6e1221b25a2a01f";
        "23c816989647ae53d51474f604e80c29";
        "cc8719f7f4b957bebe8c5f2dfcc1e459";
        "bac9e22e2ce8416bbc9add489d3e021b";
      ] );
    ( "lattice-slow3",
      "linear:8",
      [
        "5acc1bde3429a2470fc003697eb888e9";
        "1eef934694c1009a33cc4c5f2abe2c2c";
        "71c76cb5c5baec282ea6c363e113642f";
        "1ff345a233095206be182dc4722d48e6";
      ] );
    ( "fir8",
      "linear:8",
      [
        "d96bacb7b52da8f3cadea8bd1db4041c";
        "502c533a69aaf3b9edbf663092de87d5";
        "6f041ed0ed27830646dfe0b1187b96e5";
        "0c5a8606464e25297263a4394a006ab5";
      ] );
    ( "iir-biquad",
      "linear:8",
      [
        "53f571bf7fcf9249ab8a2b3ed23a77eb";
        "86847ef4302a23accb7722eb566b9e0c";
        "f954188556600bcbfdfbac952472bcbc";
        "524144c9a1062ba3df139ea59c165498";
      ] );
    ( "diffeq",
      "linear:8",
      [
        "1afe12dc54b4cb6f3fe48e612bc183e0";
        "7c3b40100cc8467bac5bcf9f0eabfa6c";
        "9adbc3488a4bd2f88415fc4a89bac7b2";
        "922e15507da369d2c1aef3622eeb5cf8";
      ] );
    ( "correlator4",
      "linear:8",
      [
        "412f78c1607020945b72d149603a82d5";
        "1eb4bf874f3223a54bac30caed18b921";
        "c3070213fd3a2e94f37e9d815dd3bb0d";
        "2e4bc7ae29cdf5687444d22cc4396689";
      ] );
    ( "stencil8",
      "linear:8",
      [
        "c254564e1dba8fec1ef820404fe9576b";
        "eacea94e83b02aaf34ee306029bb56aa";
        "11eeb4ae54cd92ef95ffaba25fe05c9b";
        "2b88b88c3b859de650899cac29372d35";
      ] );
    ( "matvec3",
      "linear:8",
      [
        "be3b4a7203475b1a73c2c04649037fcd";
        "db8cfab09269a11c11963c81bf064d38";
        "70c7f70f5e28364daa0647a6e460cc1b";
        "184194d784a5900ac8e4a920a0a3fbc0";
      ] );
    ( "lms4",
      "linear:8",
      [
        "a9d38f71f54ddf63cc0de49cdff6a7f1";
        "a0db36c944998900746d1f4b32832ad4";
        "a0c431d9971b1d5fb80c1978e12e52da";
        "8fb045a5e8082b8962796df37c161c6d";
      ] );
    ( "volterra",
      "linear:8",
      [
        "2a3b335db19167fb75ac61c5c3eea517";
        "c9d0db0a1f5304f29b7a85ae35d4c939";
        "73847ee7abd60e786cc27bb011b74008";
        "b9307afbd96ff0fdbf9f7e9506f2e4c3";
      ] );
    ( "fft8",
      "linear:8",
      [
        "30ef46a1c135d059d3fc852ca45489e9";
        "66cb8e976e2cfbb3508bba6dd1e637de";
        "a13619711a63b9934bdbe4258806f003";
        "e6a13f280fbb290a3a60f2792b98a633";
      ] );
    ( "biquad-cascade3",
      "linear:8",
      [
        "8fb0f3f65eb55f0637b1768f9bd238da";
        "18fe759592b049358f41f3044fb1f847";
        "c16d6e5aa3fcb90801242ada88cfa5c6";
        "cef1495a67f0f6a8cb46ae0d3d60e129";
      ] );
    ( "wavefront4",
      "linear:8",
      [
        "0794c6399170fa52a0ba81607e9af66f";
        "dc219ef5abad890eadd3101fd3990047";
        "2d1c7e719bbcb84581fa1cb675578510";
        "81c366b5f10b8fd9893b4aae7bf00e7f";
      ] );
    ( "fig1b",
      "mesh:2x4",
      [
        "120e10fcbbb13b25724ffc98875ccc1c";
        "42d561b5c27ff22a3b7cee253a9fc26f";
        "ca64a6ada6c14f12cd3484ca3690da68";
        "2b959300976e5cbbebc624b4a8426105";
      ] );
    ( "fig7",
      "mesh:2x4",
      [
        "c98f61e04d839c52af77757cbcd09c7d";
        "3d703c75f3e7deb1b4ffab53b8cb3732";
        "00cb6a7f07929cb58037169992d8dfd0";
        "b913690a12ba094b4e920a4f80e25364";
      ] );
    ( "tiny-chain",
      "mesh:2x4",
      [
        "8ba76cc5dab07f82bc931985aecdc8e0";
        "a6c8c4ea4c024f16b0fcf5c5fff24269";
        "373c242756543564c537d9ff9d19cece";
        "f2167a2c3467e3002acb7267b151f1b6";
      ] );
    ( "self-loop",
      "mesh:2x4",
      [
        "5b25aa32061a84aa5dc393056c26ff5c";
        "e4ccc98597daa7824e7f6b5b84f5ba51";
        "1fa1d9d5834e9783147201a677d6ad58";
        "b0ba974322d1010d39fcbd2f2484e61c";
      ] );
    ( "two-chains",
      "mesh:2x4",
      [
        "5c58bf2b244085b7444572f340be1dac";
        "b7559fb3aeac7881440548942fa3731f";
        "8f2265fe1090547cebfaf5193e5f8357";
        "3d2443412746094e4a811ea7cd5b3221";
      ] );
    ( "elliptic",
      "mesh:2x4",
      [
        "bebf86c7650a1a7e434fef8b5bc8e12e";
        "a003f9858f4934a4303dd1feac467848";
        "f8f153882b5d3c654233c1096af2baf3";
        "60fe85fd91affa52db39db15c17be0ed";
      ] );
    ( "lattice",
      "mesh:2x4",
      [
        "46fc283fa4aca51ab50b1ca6ccb1fe74";
        "bf25eb03465caa9b8e2685bb69ce4ef9";
        "13eec9b2198eed22ab5f4ce2064d7bc3";
        "fdb395db9a2b41d1b23f2b989a0b6767";
      ] );
    ( "elliptic-slow3",
      "mesh:2x4",
      [
        "b6f9235750295fb410ff53ddffe03dd8";
        "5bac7146fa1fb041bbf75a028617eaad";
        "9475057dd93432b989e4c2d9d7ec6c3a";
        "87e96386a2b143d1a413f31ac6c244da";
      ] );
    ( "lattice-slow3",
      "mesh:2x4",
      [
        "35e093e4386657892e85e68d81e13b6f";
        "1cb29a2e07b7225cf051293a9c0fc605";
        "3a295a0a7caa38e0f2282ba411d66ef3";
        "58975900b8677f2b36462e7c4800dedd";
      ] );
    ( "fir8",
      "mesh:2x4",
      [
        "dbb3d4940ea4be1cc16b5396908bbe76";
        "1e92f57905ce8f64b0a620d7fdcf2cbd";
        "193b9f22f2ff9bd8317fd5175e799ad4";
        "05bab71893469acb17c119806f63cec3";
      ] );
    ( "iir-biquad",
      "mesh:2x4",
      [
        "f11646831223b8caa70e98da6dd48e2e";
        "7678231198f24ab7f425b2a4a8f0de3d";
        "15f61e88d6306e4305a632654bbf7a16";
        "b4c9bbc7c3bfbfacbd3f1d7de5d07eb6";
      ] );
    ( "diffeq",
      "mesh:2x4",
      [
        "10cf4d541e364e8e3d5ecc459ccf9b37";
        "f45d28b113f261efe3238158655ce248";
        "65207d7d654a21af88cf21a7d487a6be";
        "0eca6b77d497c938bb7ef2cd33c09537";
      ] );
    ( "correlator4",
      "mesh:2x4",
      [
        "5e5eb633c37ba51e74cd35f114151f1c";
        "9a53043c0700116b25798a372cb39cf7";
        "59730e36cebc2f964a4f8b8342f5f3b1";
        "b3f55ddb1b8fc3e187268620733f60d4";
      ] );
    ( "stencil8",
      "mesh:2x4",
      [
        "395a95fc6728067078bcafca583043dc";
        "aeea19e3f1ddbcec3b7445672ee208b3";
        "afa4fe883edb9a2b59d7facd9dc91226";
        "229e342f48ee180dad55b7d3fe5d7d36";
      ] );
    ( "matvec3",
      "mesh:2x4",
      [
        "65bb61eacdd9076e9adf41c1fef7a6ad";
        "542c991c6316e3af1453dce01f48c6a5";
        "1d26e785898b8b5f094f1b910752aad5";
        "458ee2038ab2cf5f1e9f5840713a9c29";
      ] );
    ( "lms4",
      "mesh:2x4",
      [
        "f181c3f990cad121ecade2dd3082d6b3";
        "7c1b896a8856e5239ee929ba2c891154";
        "1f731f8940e604d9bfc28491ee7cea36";
        "5f0d49916f8808442175118f8bae0308";
      ] );
    ( "volterra",
      "mesh:2x4",
      [
        "bde77348a89f088011992a49e6b3eba9";
        "1dc6ea9809dfd659eec5fa6b31551bf9";
        "4b98492be4123a432a721f4caad1e753";
        "2b5564a1dc6a9ebe5c3132b0bacbb259";
      ] );
    ( "fft8",
      "mesh:2x4",
      [
        "1aaecc601191a68bd97cfba71e0e7cd3";
        "1906cdbf27980cd2e33e9e62b12af5f1";
        "2935dacdf162edfbd10eef70ecb07017";
        "91e4599f0d900d637aa94f33fe7d75f4";
      ] );
    ( "biquad-cascade3",
      "mesh:2x4",
      [
        "400d3839c32318359f2e8a9bc55e03df";
        "46f9c453f14edbf9b29dbc2fbb6ee19c";
        "79e7744c6f22ef244b31822431d18f43";
        "1f1ccecc2563a45b2fe853c67f7d39b1";
      ] );
    ( "wavefront4",
      "mesh:2x4",
      [
        "5dafefa8b5574deb355fb84f7c522495";
        "678fd8566ba9c9e5f70055c388fdcba3";
        "12e792c72ec73742b52e4757b762754e";
        "015e71c00111f973bd8369600c6baace";
      ] );
    ( "fig1b",
      "hypercube:3",
      [
        "c54df182d4f561533b6822d808bf7682";
        "b00084a1b43258a85e15bdb58e551983";
        "561844891b2e32cb89d35b129c470205";
        "37e7704501c6fd0109d72c0572ec6d0c";
      ] );
    ( "fig7",
      "hypercube:3",
      [
        "c26f35a435aece872231cbf1b31edb1c";
        "84b60ef39b8baf21d115ef53f3ba85fb";
        "e07137f742bfc21dd5f59d003477ff02";
        "1c5beaa44434fc6b44dacd0dfeea7e65";
      ] );
    ( "tiny-chain",
      "hypercube:3",
      [
        "8ba76cc5dab07f82bc931985aecdc8e0";
        "a6c8c4ea4c024f16b0fcf5c5fff24269";
        "373c242756543564c537d9ff9d19cece";
        "f2167a2c3467e3002acb7267b151f1b6";
      ] );
    ( "self-loop",
      "hypercube:3",
      [
        "5b25aa32061a84aa5dc393056c26ff5c";
        "e4ccc98597daa7824e7f6b5b84f5ba51";
        "1fa1d9d5834e9783147201a677d6ad58";
        "b0ba974322d1010d39fcbd2f2484e61c";
      ] );
    ( "two-chains",
      "hypercube:3",
      [
        "5c58bf2b244085b7444572f340be1dac";
        "b7559fb3aeac7881440548942fa3731f";
        "8f2265fe1090547cebfaf5193e5f8357";
        "3d2443412746094e4a811ea7cd5b3221";
      ] );
    ( "elliptic",
      "hypercube:3",
      [
        "f2f80552905392e05683c33621588dc5";
        "9681dd7ada0c9cbab19200fb4ba6efb0";
        "9a1adb341c8206370ed9e8643ba6c790";
        "6fbd1a8726276fc84b09a96a2ba4e113";
      ] );
    ( "lattice",
      "hypercube:3",
      [
        "ac2c1504dce91d67959da7b9913cbe5b";
        "bb8a0ebac380291f6650cc004088b27b";
        "fb163e36e607711d7f7aa57a35b44542";
        "4729578f74be170ebe34e36d62453a10";
      ] );
    ( "elliptic-slow3",
      "hypercube:3",
      [
        "13cb1df939a2c90e8b5df6ba57503d08";
        "fba97a261502005a0d8407400303b133";
        "c4f0efb25b7e1142ab2f41ef6c6269fb";
        "ef52c25da911b9ee2d18a6ba6bbc123c";
      ] );
    ( "lattice-slow3",
      "hypercube:3",
      [
        "6634a5de62513ae2ebc7817675c24d48";
        "ebafdbc5f2d84b6c8323b3f68bb9c9e3";
        "539ce6ebf6e1357eb36e0b32c2829bc0";
        "ee11d7b9fa28169486c83fed745d039c";
      ] );
    ( "fir8",
      "hypercube:3",
      [
        "86f76a75c12fa9f704388a3782ca5d56";
        "3ab6be78e494f7cdc8b1d13dc04505e0";
        "006cdac81bf267ce659b36a2f9b776d6";
        "c513e2344df2273c12caf14a3b76188e";
      ] );
    ( "iir-biquad",
      "hypercube:3",
      [
        "b771abe392808919e316f7bd5171104c";
        "4513d78cccc6bc6d2958faec269d1e96";
        "50ad3ca428bc53709357721e291865e8";
        "1e2878f90a9eeb4fed2ea776694bb69d";
      ] );
    ( "diffeq",
      "hypercube:3",
      [
        "521da803df7112275022dfb9cdff4e9e";
        "ccc8eeb7a9e5926034713263480cb9d2";
        "3aedb9419c5869c790b53b5813d6062a";
        "b8f5d90fb778b234f590a26c2e97f366";
      ] );
    ( "correlator4",
      "hypercube:3",
      [
        "a39690fc7d5a72d6eb096b2449b96473";
        "7a16aba97699995f943f19e242f2196b";
        "385f6730ccec74c4db07e3b163750a2d";
        "4669cc1283d0dc2635132d96ce4c2c58";
      ] );
    ( "stencil8",
      "hypercube:3",
      [
        "5273383f18ab556716e5be18e6fdf6b2";
        "85e708dcca3320f80a1760a43456f4df";
        "d3b54b27ec5ce9dbeb820a228a3bf87c";
        "8ee47ce484d59cd6167e15fc60a94415";
      ] );
    ( "matvec3",
      "hypercube:3",
      [
        "ae1da703395c966f13d97333a0db46be";
        "e8543129d7a0a4c1bd8585177e0884d5";
        "157c6729cb9674350f6a4e13916caaa3";
        "a43d1a789f1ea385e275b1f7639a041f";
      ] );
    ( "lms4",
      "hypercube:3",
      [
        "f333b962a478e4594b6ccad5c79b9843";
        "63953397e79533159e7e05c52e136d2a";
        "b60da78edbff011de32e986cf85238cc";
        "b973c1057b3ddea9d436fc632996e09f";
      ] );
    ( "volterra",
      "hypercube:3",
      [
        "9beb77bc9e763334d5ac54c0cdce740d";
        "7aa14e89151f3d577c5c138bd681c308";
        "2fb67d8cf8a697915d06f39c06a30258";
        "83574c9f89eb3a16a1f5446830752b6a";
      ] );
    ( "fft8",
      "hypercube:3",
      [
        "1aaecc601191a68bd97cfba71e0e7cd3";
        "1906cdbf27980cd2e33e9e62b12af5f1";
        "2935dacdf162edfbd10eef70ecb07017";
        "91e4599f0d900d637aa94f33fe7d75f4";
      ] );
    ( "biquad-cascade3",
      "hypercube:3",
      [
        "641ecce447055480efc72af7d378d2a5";
        "d0dafae4e9a2034156444cb6fcba499c";
        "05dda11e2dc6b6df35010b0d0dd07301";
        "8e2777092b5a8abff2179290210fc1f4";
      ] );
    ( "wavefront4",
      "hypercube:3",
      [
        "0a49e422b8a45c1ba981cf637fbabb5a";
        "c79fc007a1dcc0efc7dd42f97e9e27fc";
        "1c227197d36e7d142862cf8636196fdd";
        "dbefcd1175d589b123f6188c1fcd73c7";
      ] );
  ]

let test_clean_runs () =
  check_rows "clean" clean_golden (fun name arch ->
      List.map
        (fun (policy, transport) ->
          run_digest ~policy ~transport (schedule_of name arch))
        clean_configs)

(* {2 Fault-injected runs} *)

let fault_runs () =
  let failstop =
    match Faults.read_file ~path:"../data/pe3-failstop.fault" with
    | Ok s -> s
    | Error e -> Alcotest.fail (Faults.error_to_string e)
  in
  let lossy =
    Faults.scenario ~max_retries:3 ~backoff_base:2 ~name:"lossy"
      [
        Faults.Link_lossy { a = 0; b = 1; loss = 0.4 };
        Faults.Link_lossy { a = 1; b = 2; loss = 0.4 };
      ]
  in
  let transient =
    Faults.scenario ~name:"transient"
      [ Faults.Link_down { a = 1; b = 2; from_t = 8; until = Some 30 } ]
  in
  let cut =
    Faults.scenario ~name:"cut"
      [ Faults.Link_down { a = 1; b = 5; from_t = 20; until = None } ]
  in
  [
    Faults.arm ~seed:1 failstop;
    Faults.arm ~seed:1 lossy;
    Faults.arm ~seed:2 lossy;
    Faults.arm ~seed:3 lossy;
    Faults.arm ~seed:1 transient;
    Faults.arm ~seed:1 cut;
  ]

let policy_of = function
  | "contention-free" -> Sim.Contention_free
  | _ -> Sim.Fifo_links

(* Per row: the fail-stop file, the lossy scenario under seeds 1-3, the
   transient outage and the permanent cut, all on mesh:2x4. *)
let fault_golden =
  [
    ( "fig7",
      "contention-free",
      [
        "4d6d24cd7796f1b1fe9c18ade9e0913d";
        "d9737d2e599db7c0127a496fd50ffca7";
        "fcedc172ec06007813dcbbbb1a2dee46";
        "d28937a1700ec89cd9e7c9714995f693";
        "b35bb50040b414392c761487857d040a";
        "5dc95e31182f362a66791062b104f669";
      ] );
    ( "fig7",
      "fifo-links",
      [
        "f2b79dcfb2c36fa8cb987111c9ba253f";
        "4ac8ea289e262491327c5aab9d2ec53f";
        "a3104be18be2485db18825c8432fd125";
        "668221526ad69df97cd572ccbe0edabf";
        "48425dff7f99355ff8a14cbce2cb6b42";
        "1428d1f5d265a2d5a986b268237e1474";
      ] );
    ( "elliptic",
      "contention-free",
      [
        "852e21eb6a7c39232683d11697973fac";
        "a6b27a2bd43bf2f61e0a577fce606c8b";
        "65df0a1afc448ce9834b3443a05db238";
        "fd2627613dd0e6dc4605c170fb6c88d7";
        "e32f566935ceb997da4cd949b5d69cb1";
        "503031b00e7fa2358158dce3969a0439";
      ] );
    ( "elliptic",
      "fifo-links",
      [
        "3598702ac24c35080679fe61fd9f68f5";
        "0b1a7f36c136fb17d7ce8c5d64d0530c";
        "940fce31a4f0dfefd7556c878597b22b";
        "dd1fbcbb6599d01a67ad0e2ea476e4c1";
        "3c0184f4302843521ba20daf4b85cda3";
        "96a0e3d363d9598a7f08f458e311570e";
      ] );
    ( "lms4",
      "contention-free",
      [
        "cfe9ecd1441583ce07f8672eab459a5a";
        "a638ae1a11b8a5cca43ae0e6d2eb779c";
        "872585e8a42dd99d0d9278a5ab041721";
        "cb1dc2dd2957c0e308ad46e8b4f54180";
        "d42fdecf6f831efb31a4a4cf219a29e2";
        "140ca8dad206272bdaddcdd0a3936419";
      ] );
    ( "lms4",
      "fifo-links",
      [
        "1e9ac44595c7bf049ad64e147a5b8cc7";
        "6d2a0dd99499a04451c38caab379f387";
        "f88e56138f1d5fd2ca6bed0ae38a5ac9";
        "ba649514d297ee4fd3d1aaf1b87f1c73";
        "a1883c4a12018029a65bd8d1980c55db";
        "75bc0a3b81219a22370349feaaacee64";
      ] );
  ]

let test_fault_runs () =
  let runs = fault_runs () in
  List.iter
    (fun (name, policy, expected) ->
      let sched = schedule_of name "mesh:2x4" in
      Alcotest.(check (list string))
        (Printf.sprintf "faults %s under %s" name policy)
        expected
        (List.map
           (fun faults ->
             run_digest ~faults ~policy:(policy_of policy)
               ~transport:Sim.Store_and_forward sched)
           runs))
    fault_golden

(* {2 Replans} *)

(* One line per failed processor: the plan's strategy, moved nodes,
   migration cost and schedule signature, or the replan error. *)
let replan_lines name arch =
  let topo, s = schedule_of name arch in
  List.init (Topology.n_processors topo) (fun pe ->
      match Cyclo.Degrade.replan s topo ~failed_pes:[ pe ] ~failed_links:[] with
      | Error e -> Printf.sprintf "pe%d error %s" pe e
      | Ok plan ->
          Printf.sprintf "pe%d %s moved=%d cost=%d %s" pe
            (match plan.Cyclo.Degrade.strategy with
            | Cyclo.Degrade.Patched -> "patched"
            | Cyclo.Degrade.Rebuilt -> "rebuilt")
            (List.length plan.Cyclo.Degrade.moved)
            plan.Cyclo.Degrade.migration_cost
            (Schedule.signature plan.Cyclo.Degrade.schedule))

let replan_golden =
  [
    ("fig1b", "linear:8", [ "c8679d281142a9397ee21ce8632e4d33" ]);
    ("fig7", "linear:8", [ "b29ce6eedc412776c0da1ba6800519dc" ]);
    ("tiny-chain", "linear:8", [ "d75eb867e8e0734d254b455fa693fde0" ]);
    ("self-loop", "linear:8", [ "88549bce9394288f50f70f9c97ff7a3b" ]);
    ("two-chains", "linear:8", [ "fdc076a73b915c002d673a497b336787" ]);
    ("elliptic", "linear:8", [ "04928e63ddf4708feb0d8cc4ecb19b68" ]);
    ("lattice", "linear:8", [ "8a3b7ed11864857d0e09f5a7ac266300" ]);
    ("elliptic-slow3", "linear:8", [ "4fa5ebfd37d4db3343b4e6781098a543" ]);
    ("lattice-slow3", "linear:8", [ "f23f14f4b65510a5a0d6dcd25be32b77" ]);
    ("fir8", "linear:8", [ "e1444ee541d938dcef90f0523e6df901" ]);
    ("iir-biquad", "linear:8", [ "65cf108b73ca8a9698d23c14ce1be56f" ]);
    ("diffeq", "linear:8", [ "54fd180c71a306cee1c133bc6b9f73ec" ]);
    ("correlator4", "linear:8", [ "302a44ffe742d326788bcc1e230f0898" ]);
    ("stencil8", "linear:8", [ "91f71bc10062ccea6fb6a6c469c61222" ]);
    ("matvec3", "linear:8", [ "4ba8f4dec14066216bfeed939e71d90c" ]);
    ("lms4", "linear:8", [ "fe077434d7b7229563ccc4cdf2572463" ]);
    ("volterra", "linear:8", [ "88cb78c210714ffd85f7ed1997e977f9" ]);
    ("fft8", "linear:8", [ "c89681642ce0757ee212f041e73feb40" ]);
    ("biquad-cascade3", "linear:8", [ "171e85470480917dfb996a72e8733f1a" ]);
    ("wavefront4", "linear:8", [ "36631f0987e17fccb8f1f95e81a4bcb7" ]);
    ("fig1b", "mesh:2x4", [ "0e0e223d6f37de96d7d132ab160578e9" ]);
    ("fig7", "mesh:2x4", [ "f98821549fa8e072f2db61ff8ba2c71f" ]);
    ("tiny-chain", "mesh:2x4", [ "859048529422dafa3c0043ddae2cf8e5" ]);
    ("self-loop", "mesh:2x4", [ "99aedccd5651c9a5206c2625d4c410c4" ]);
    ("two-chains", "mesh:2x4", [ "b248eae6d96283bec0610a22f7a41c3b" ]);
    ("elliptic", "mesh:2x4", [ "2cda49ab18ae428bf1ee245efd2e118b" ]);
    ("lattice", "mesh:2x4", [ "48598f17397a664edb3d5648d1bc3c3a" ]);
    ("elliptic-slow3", "mesh:2x4", [ "742d740d500919161c06ef103d5f3891" ]);
    ("lattice-slow3", "mesh:2x4", [ "52f49658a9d6cd9be9ced14c22ff27a1" ]);
    ("fir8", "mesh:2x4", [ "0530ac56d0c42fe0e223adab18ad3493" ]);
    ("iir-biquad", "mesh:2x4", [ "0a518cc440eb7e19e81469cffefdeaaa" ]);
    ("diffeq", "mesh:2x4", [ "3a4d7b966d8917c0e93715fc6e73389e" ]);
    ("correlator4", "mesh:2x4", [ "16d8357622b98867f316172a1cf734c4" ]);
    ("stencil8", "mesh:2x4", [ "6563142ee175b24235d61b9441357546" ]);
    ("matvec3", "mesh:2x4", [ "2bf0f3bca50d25e07252d587401db253" ]);
    ("lms4", "mesh:2x4", [ "f5107727e534b2ae60bc99d27fce3362" ]);
    ("volterra", "mesh:2x4", [ "5ad21634663d328a96ffba90e972a499" ]);
    ("fft8", "mesh:2x4", [ "836726f181cc9a95bf560d36c6129663" ]);
    ("biquad-cascade3", "mesh:2x4", [ "034a0149a04f08e2ce70aa71047d1cad" ]);
    ("wavefront4", "mesh:2x4", [ "988d6788cd177d68858a6a9d4b150e08" ]);
    ("fig1b", "hypercube:3", [ "5ff72140ac77398c1e17f6dbeaefd8c4" ]);
    ("fig7", "hypercube:3", [ "fdc1a7af04f112322d40a145865efe04" ]);
    ("tiny-chain", "hypercube:3", [ "eac3ee2754e0efdc49d6ed04ec238bd2" ]);
    ("self-loop", "hypercube:3", [ "99aedccd5651c9a5206c2625d4c410c4" ]);
    ("two-chains", "hypercube:3", [ "9504478fdb83dc8bdac2d641c3fd4f5a" ]);
    ("elliptic", "hypercube:3", [ "3fcbe4bbf582e684ee407c6735090e03" ]);
    ("lattice", "hypercube:3", [ "cf5cf80d4aaf8f66ef76f55b50352beb" ]);
    ("elliptic-slow3", "hypercube:3", [ "556c426364551537e1ddb68cc721d091" ]);
    ("lattice-slow3", "hypercube:3", [ "97e70891e3bce4469348219ab8a9f397" ]);
    ("fir8", "hypercube:3", [ "f6b81082ed49279b20aa770afc0efbcc" ]);
    ("iir-biquad", "hypercube:3", [ "d8ec0b2f8b84bcc0cef01b803ec100dc" ]);
    ("diffeq", "hypercube:3", [ "1d36525a5e6d57fd8ccd0f50abb0025c" ]);
    ("correlator4", "hypercube:3", [ "3e5603411648deac99376313e2a71790" ]);
    ("stencil8", "hypercube:3", [ "ed92906a3d362c3c2a3d762834d36125" ]);
    ("matvec3", "hypercube:3", [ "f32553e06616c1fa5baa0e476a81862e" ]);
    ("lms4", "hypercube:3", [ "dc2ff2eeb2283689d7ff6e602c211c68" ]);
    ("volterra", "hypercube:3", [ "db022604185c7a3a4dfc3ccb07ea5093" ]);
    ("fft8", "hypercube:3", [ "836726f181cc9a95bf560d36c6129663" ]);
    ("biquad-cascade3", "hypercube:3", [ "546c6466f61c7efaece71709c759aa6d" ]);
    ("wavefront4", "hypercube:3", [ "7b1fd1e60d14fb9b81f6a3f00584868f" ]);
  ]

let test_replans () =
  check_rows "replan" replan_golden (fun name arch ->
      [
        Digest.to_hex
          (Digest.string (String.concat "\n" (replan_lines name arch)));
      ])

let () =
  Alcotest.run "simulator_golden"
    [
      ( "golden",
        [
          Alcotest.test_case "fault-free run digests" `Quick test_clean_runs;
          Alcotest.test_case "fault run digests" `Quick test_fault_runs;
          Alcotest.test_case "single-failure replans" `Quick test_replans;
        ] );
    ]
