(* The layer calls the in-process ops are made of, each wrapped in a
   ledger span so the traced run can time it from outside. *)

module Csdfg = Dataflow.Csdfg
module Compaction = Cyclo.Compaction

let span = Ledger.span

let parse ?(validate = true) text =
  span "io.parse" @@ fun () ->
  let g =
    match Dataflow.Io.of_string text with
    | Ok g -> g
    | Error e -> failwith ("parse: " ^ Dataflow.Io.error_to_string e)
  in
  if validate then (
    match Csdfg.validate g with
    | Ok () -> ()
    | Error _ -> failwith ("illegal CSDFG " ^ Csdfg.name g));
  g

let topology ~wormhole arch =
  span "topology.build" @@ fun () ->
  let topo =
    match Topology.of_spec arch with Ok t -> t | Error m -> failwith m
  in
  ( topo,
    if wormhole then Cyclo.Comm.wormhole topo
    else Cyclo.Comm.of_topology topo )

(* Cyclo-compaction.  Untraced, this is exactly [Compaction.run].
   Traced, it is the same search driven the way [Compaction.run] drives
   it — start-up, a legality check, then a stepper — but advanced one
   pass at a time so start-up, each pass and each validation get their
   own span.  Steppers take the identical pass sequence however they are
   sliced, so both return the same schedule (the traced run checks
   it). *)
let compact ?mode ?passes g comm =
  if not !Ledger.on then Compaction.run ?mode ?passes g comm
  else begin
    let startup = span "startup" (fun () -> Cyclo.Startup.run g comm) in
    span "validator" (fun () -> Cyclo.Validator.assert_legal startup);
    let budget =
      match passes with
      | Some p -> max 0 p
      | None -> Compaction.default_passes (Csdfg.n_nodes g)
    in
    let st = Compaction.stepper ?mode ~budget ~validate:false startup in
    let rec loop () =
      let before = Compaction.passes_run st in
      let status =
        span "compaction.pass" (fun () -> Compaction.advance ~passes:1 st)
      in
      if Compaction.passes_run st > before then begin
        let current = (Compaction.stepper_result st).Compaction.final in
        span "validator" (fun () -> Cyclo.Validator.assert_legal current)
      end;
      match status with `Paused -> loop () | `Finished | `Stopped -> ()
    in
    loop ();
    Compaction.stepper_result st
  end

let export best = span "export" (fun () -> Cyclo.Export.to_json best)

let useful_passes (r : Compaction.result) =
  List.length
    (List.filter
       (fun e -> e.Compaction.outcome = Compaction.Compacted)
       r.Compaction.trace)

(* Independent legality of a schedule on its machine. *)
let legal sched topo =
  Result.is_ok (Cyclo.Validator.check sched)
  && Result.is_ok (Cyclo.Validator.check_topology sched topo)
