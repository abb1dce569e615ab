(* A closed loop over a fixed op list, run in this process: each op
   starts when the previous one has returned.  [summarize k out] (for op
   number [k]) runs between ops, outside the op's interval, and keeps
   only what the checks need, so neither check work nor retained outputs
   enter the timings or the peak RSS.  The calibration kernel runs
   before every [block] ops and after the last, also outside the ops'
   intervals. *)

type 's loop = {
  lat_ns : int array;  (** wall clock of each op *)
  cal_ns : float array;  (** the same, calibrated (see Common.calibrate) *)
  summaries : 's array;
}

let run ?(traced = false) ~block ~op ~summarize ops =
  let total = Array.length ops in
  let lat_ns = Array.make total 0 in
  let summaries = Array.make total None in
  let kernel = Array.make (((total + block - 1) / block) + 1) 0. in
  if traced then Ledger.start ();
  for k = 0 to total - 1 do
    if k mod block = 0 then kernel.(k / block) <- Common.kernel_ns ();
    let t0 = Common.now_ns () in
    let out =
      if traced then Ledger.op k (fun () -> op ops.(k)) else op ops.(k)
    in
    lat_ns.(k) <- Common.now_ns () - t0;
    summaries.(k) <- Some (summarize k out)
  done;
  kernel.(Array.length kernel - 1) <- Common.kernel_ns ();
  if traced then Ledger.stop ();
  {
    lat_ns;
    cal_ns = Common.calibrate ~block ~kernel lat_ns;
    summaries = Array.map Option.get summaries;
  }

(* The loop's calibrated time, in seconds. *)
let seconds loop = Common.sum loop.cal_ns /. 1e9

(* Summaries that disagree with the reference of their op, [refs.(k mod
   n)] for op [k], [n] the length of [refs]. *)
let mismatches ~same summaries refs =
  let n = Array.length refs in
  let bad = ref 0 in
  Array.iteri
    (fun k s -> if not (same s refs.(k mod n)) then incr bad)
    summaries;
  !bad
