(* The two searches behind `ccsched autotune` and `ccsched optimal`,
   pinned by MD5 digest.

   - Autotune: one line per suite loop, holding the name, length and
     signature of the best schedule the four (mode, scoring)
     configurations reach after local-search polish.  One digest per
     machine and transport (store-and-forward, wormhole).  The set
     includes the cells where polish shortens the winner (fir8 and
     stencil8 on linear:4, iir-biquad on linear:8) and lms4 on linear:4,
     where two configurations tie at the minimum length.
   - Exact solver: one line per 5-node random loop (seeds 1-12),
     holding the outcome of [Exhaustive.solve] (optimal or gave up) and
     the signature of the schedule it carries.  One digest per processor
     count (2, 3) and budget: 300 states, where every solve gives up;
     2,000 states, where 8 of 12 (2 PEs) and 9 of 12 (3 PEs) give up;
     the default budget, where none does; and the default budget split
     over 2 and 3 shards.

   A failing row prints the actual digest. *)

module Schedule = Cyclo.Schedule
module Comm = Cyclo.Comm
module Exhaustive = Cyclo.Exhaustive

let digest lines = Digest.to_hex (Digest.string (String.concat "\n" lines))

(* ------------------------------------------------------------------ *)
(* Autotune                                                             *)
(* ------------------------------------------------------------------ *)

let autotune_best g comm =
  Cyclo.Portfolio.(best (polish (run ~k:4 g comm)))

let transports =
  [ ("store-and-forward", Comm.of_topology); ("wormhole", Comm.wormhole) ]

let autotune_digest machine transport =
  let comm =
    (List.assoc transport transports)
      (Result.get_ok (Topology.of_spec machine))
  in
  digest
    (List.map
       (fun (name, g) ->
         let best = autotune_best g comm in
         Printf.sprintf "%s;%d;%s" name (Schedule.length best)
           (Schedule.signature best))
       (Workloads.Suite.all ()))

let autotune_golden =
  [
    ("linear:4", "store-and-forward", "2d51a7e17aeb24c7fa0ac60ab0cab023");
    ("linear:4", "wormhole", "8af8f3f40492612d53cbaad6aa78535b");
    ("linear:8", "store-and-forward", "5dda7cc411536f73fda57f6f3a8cbc66");
    ("linear:8", "wormhole", "7d1d5022777208b0255519aed818e6ee");
    ("mesh:2x4", "store-and-forward", "7679d8e68202426a922a953faf32b3b3");
    ("mesh:2x4", "wormhole", "1529101330bb0d56452182084e84da26");
    ("complete:8", "store-and-forward", "19f2c1a5d4a5fa85297fe99527270a4e");
    ("complete:8", "wormhole", "19f2c1a5d4a5fa85297fe99527270a4e");
  ]

(* ------------------------------------------------------------------ *)
(* Exact solver                                                         *)
(* ------------------------------------------------------------------ *)

let loops =
  lazy
    (let params =
       { Workloads.Random_gen.default with nodes = 5; feedback_edges = 2 }
     in
     List.init 12 (fun i ->
         let seed = i + 1 in
         (seed, Workloads.Random_gen.generate_connected ~params ~seed ())))

(* (row name, max_states, shards) *)
let budgets =
  [
    ("states 300", Some 300, 1);
    ("states 2000", Some 2_000, 1);
    ("default", None, 1);
    ("default, 2 shards", None, 2);
    ("default, 3 shards", None, 3);
  ]

let outcome = function
  | Exhaustive.Optimal s -> "optimal;" ^ Schedule.signature s
  | Exhaustive.Gave_up (Some s) -> "gave up;" ^ Schedule.signature s
  | Exhaustive.Gave_up None -> "gave up;none"

let exhaustive_digest np (_, max_states, shards) =
  let comm = Comm.of_topology (Topology.complete np) in
  digest
    (List.map
       (fun (seed, g) ->
         Printf.sprintf "%d;%s" seed
           (outcome (Exhaustive.solve ?max_states ~shards ~domains:2 g comm)))
       (Lazy.force loops))

let exhaustive_golden =
  [
    (2, "states 300", "07e143dfda4b70a8893e995cac818506");
    (2, "states 2000", "cee34118700e5e4a4d02bad8eab633d1");
    (2, "default", "5c537753cd6cbab6ab3e7e1ce8de10a4");
    (2, "default, 2 shards", "5c537753cd6cbab6ab3e7e1ce8de10a4");
    (2, "default, 3 shards", "5c537753cd6cbab6ab3e7e1ce8de10a4");
    (3, "states 300", "f9bd5afeb24cd545e4cdfb2d2de00b15");
    (3, "states 2000", "c7ff46cfb85b590fcef4f4cbddccf873");
    (3, "default", "1e71a59294c9625cae09af4eee36a034");
    (3, "default, 2 shards", "1e71a59294c9625cae09af4eee36a034");
    (3, "default, 3 shards", "1e71a59294c9625cae09af4eee36a034");
  ]

let () =
  Alcotest.run "search pinned"
    [
      ( "autotune",
        List.map
          (fun (machine, transport, want) ->
            let name = Printf.sprintf "%s %s" machine transport in
            Alcotest.test_case name `Quick (fun () ->
                Alcotest.(check string) name want
                  (autotune_digest machine transport)))
          autotune_golden );
      ( "exhaustive",
        List.map
          (fun (np, budget, want) ->
            let name = Printf.sprintf "%d PEs %s" np budget in
            Alcotest.test_case name `Quick (fun () ->
                Alcotest.(check string) name want
                  (exhaustive_digest np
                     (List.find (fun (b, _, _) -> b = budget) budgets))))
          exhaustive_golden );
    ]
