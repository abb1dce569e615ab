(* Every compaction pass pinned by MD5 digest.  Each digest is over one
   line per suite loop (the 20 loops of [Workloads.Suite.all]), after
   [Compaction.run] under one configuration.  A line holds:
   - the loop's name;
   - every pass of the trace: its number, the labels of the rotated set
     [J], the table length after it and its outcome;
   - whether the search converged;
   - the best schedule's signature (length, then each node's CB and PE).

   The grid is the one the suite-simulate benchmark drives: six machines
   x both transports (store-and-forward, wormhole) x both remap modes,
   with the default scoring and order.  Extra rows cover the
   earliest-step scoring, the reverse re-placement order and
   heterogeneous processor speeds.  A change to the candidate ranking,
   the re-placement order or the pass bookkeeping shows here even when
   the best length does not move.  A failing row prints the actual
   digest. *)

module Schedule = Cyclo.Schedule
module Compaction = Cyclo.Compaction
module Remap = Cyclo.Remap
module Comm = Cyclo.Comm

let transports =
  [ ("store-and-forward", Comm.of_topology); ("wormhole", Comm.wormhole) ]

type config = {
  machine : string;
  transport : string;
  mode : Remap.mode;
  scoring : Remap.scoring;
  order : Remap.order;
  speeds : int array option;
}

let base machine transport mode =
  {
    machine;
    transport;
    mode;
    scoring = Remap.Pressure_first;
    order = Remap.Forward;
    speeds = None;
  }

let entry_text (e : Compaction.trace_entry) =
  Fmt.str "%d{%s}%d%a" e.pass
    (String.concat " " e.rotated)
    e.length Compaction.pp_outcome e.outcome

let line c comm (name, g) =
  let r =
    Compaction.run ~mode:c.mode ~scoring:c.scoring ~order:c.order
      ?speeds:c.speeds g comm
  in
  Printf.sprintf "%s;%s;converged=%b;%s" name
    (String.concat "," (List.map entry_text r.Compaction.trace))
    r.Compaction.converged
    (Schedule.signature r.Compaction.best)

let digest c =
  let comm =
    (List.assoc c.transport transports)
      (Result.get_ok (Topology.of_spec c.machine))
  in
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          (List.map (line c comm) (Workloads.Suite.all ()))))

let machines =
  [ "linear:8"; "ring:8"; "mesh:2x4"; "mesh:4x4"; "hypercube:3"; "complete:8" ]

let modes = [ Remap.With_relaxation; Remap.Without_relaxation ]

let grid =
  List.concat_map
    (fun machine ->
      List.concat_map
        (fun (transport, _) ->
          List.map (fun mode -> base machine transport mode) modes)
        transports)
    machines

let extra =
  let sf = "store-and-forward" and wh = "wormhole" in
  let slow_half = Some [| 1; 1; 1; 1; 2; 2; 2; 2 |] in
  let alternate = Some [| 1; 2; 1; 2; 1; 2; 1; 2 |] in
  [
    { (base "mesh:4x4" sf Remap.With_relaxation) with
      scoring = Remap.Earliest_step };
    { (base "mesh:4x4" sf Remap.Without_relaxation) with
      scoring = Remap.Earliest_step };
    { (base "linear:8" wh Remap.With_relaxation) with
      scoring = Remap.Earliest_step };
    { (base "ring:8" sf Remap.With_relaxation) with order = Remap.Reverse };
    { (base "hypercube:3" wh Remap.Without_relaxation) with
      order = Remap.Reverse };
    { (base "mesh:2x4" sf Remap.With_relaxation) with speeds = slow_half };
    { (base "mesh:2x4" wh Remap.Without_relaxation) with speeds = alternate };
    { (base "linear:8" sf Remap.With_relaxation) with
      scoring = Remap.Earliest_step;
      order = Remap.Reverse;
      speeds = alternate };
  ]

let name c =
  let mode =
    match c.mode with
    | Remap.With_relaxation -> "with"
    | Remap.Without_relaxation -> "without"
  in
  let knobs =
    (match c.scoring with
    | Remap.Pressure_first -> []
    | Remap.Earliest_step -> [ "earliest-step" ])
    @ (match c.order with Remap.Forward -> [] | Remap.Reverse -> [ "reverse" ])
    @
    match c.speeds with
    | None -> []
    | Some s ->
        let s = Array.to_list (Array.map string_of_int s) in
        [ "speeds " ^ String.concat "," s ]
  in
  String.concat " " ([ c.machine; c.transport; mode ] @ knobs)

(* complete:8 is one hop between any two processors, where a wormhole
   transfer costs what a store-and-forward one does: its two transports
   share digests. *)
let golden =
  [
    ("linear:8 store-and-forward with", "283e58046efaf1e56b121ba6864b7ac2");
    ("linear:8 store-and-forward without", "5e2b932a2740bfb29a4e2782484eeb04");
    ("linear:8 wormhole with", "50f207fe3a1921eaad06e37625c46f19");
    ("linear:8 wormhole without", "33a60ce38a54d7e477217a632762900e");
    ("ring:8 store-and-forward with", "f38561d2077ec935f3a5353eba17d4be");
    ("ring:8 store-and-forward without", "c0d9c7eb660673964f3183420f273a7f");
    ("ring:8 wormhole with", "29be06e37d14bca038f79652adb3ace9");
    ("ring:8 wormhole without", "67c1c3b9ff1adcc0efc1de6878fdbdd4");
    ("mesh:2x4 store-and-forward with", "ffd4cc49d62373a0329229470c8b7dc3");
    ("mesh:2x4 store-and-forward without", "9cf28ef94196241159a72df3f8d3a8fe");
    ("mesh:2x4 wormhole with", "68fc9c47a02f67bdaa262f97e08d36ae");
    ("mesh:2x4 wormhole without", "4ab6f02b1baeb3e7d74f7dd40ab55539");
    ("mesh:4x4 store-and-forward with", "965a448cfa31a51805e22b85c09afe12");
    ("mesh:4x4 store-and-forward without", "6251f2f1313ff5b870d199f43a09be9a");
    ("mesh:4x4 wormhole with", "86e1dea53c895f1e776e17cb42ea20e5");
    ("mesh:4x4 wormhole without", "8b69ce69f5d1b5fd157fb2a6ecb1aaff");
    ("hypercube:3 store-and-forward with", "e01fb8c4c956461da5e13d64ea191b29");
    ("hypercube:3 store-and-forward without",
     "5179fc17bb5209933b1d0f3a4e6e19fa");
    ("hypercube:3 wormhole with", "77f36097c66c3b223d91720bb755ffa5");
    ("hypercube:3 wormhole without", "1622a0284e32348da06c62486f71b26c");
    ("complete:8 store-and-forward with", "62135b9f7612014144e3afe75ca5ba62");
    ("complete:8 store-and-forward without",
     "3cb24518c0188f7b9fb1eb013ba1d660");
    ("complete:8 wormhole with", "62135b9f7612014144e3afe75ca5ba62");
    ("complete:8 wormhole without", "3cb24518c0188f7b9fb1eb013ba1d660");
    ("mesh:4x4 store-and-forward with earliest-step",
     "a98ff570973b04da284d761d23be887f");
    ("mesh:4x4 store-and-forward without earliest-step",
     "5cf1607eeb87ce7014859c65e55f9a5b");
    ("linear:8 wormhole with earliest-step",
     "9600cd86781dbc39d9a522105fd001c7");
    ("ring:8 store-and-forward with reverse",
     "0ca65345d2d9433968b46c3af37323be");
    ("hypercube:3 wormhole without reverse",
     "3933a838951e77c8e7590cc8b6b1935f");
    ("mesh:2x4 store-and-forward with speeds 1,1,1,1,2,2,2,2",
     "67ec8d2410a1ab68b663f7992834764e");
    ("mesh:2x4 wormhole without speeds 1,2,1,2,1,2,1,2",
     "c5ddc916523266fc776f8bb22375d67b");
    ("linear:8 store-and-forward with earliest-step reverse speeds 1,2,1,2,1,2,1,2",
     "0f28343c98b057cfd6323dd336061841");
  ]

let test_row c want () =
  Alcotest.(check string) (name c) want (digest c)

let () =
  let rows configs =
    List.map
      (fun c ->
        Alcotest.test_case (name c) `Quick
          (test_row c (List.assoc (name c) golden)))
      configs
  in
  Alcotest.run "trace pinned" [ ("grid", rows grid); ("knobs", rows extra) ]
