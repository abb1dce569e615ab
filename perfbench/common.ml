(* Shared pieces of the benchmark: the clock, statistics, peak RSS, the
   metric record every workload reports, and the result line. *)

let now_ns = Obs.Trace.now_ns
let ms_of_ns ns = float_of_int ns /. 1e6

type metric = { name : string; value : float; unit_ : string; samples : int }

let metric ?(samples = 1) name unit_ value = { name; value; unit_; samples }

(* What one run of one workload reports.  [failed] counts ops whose
   output failed a check; [problems] lists every failed check, op-level
   or not, so [correct] is [problems = []]. *)
type outcome = {
  attempted : int;
  failed : int;
  problems : string list;
  metrics : metric list;
  op_digest : string;  (** MD5 of the run's op sequence *)
}

(* The op sequence of a run, as the determinism test compares it. *)
let op_digest ~passes parts =
  Digest.to_hex
    (Digest.string (string_of_int passes ^ "\n" ^ String.concat "\n" parts))

(* Nearest-rank percentile of an unsorted sample, [p] in (0, 1]. *)
let percentile p samples =
  let a = Array.copy samples in
  Array.sort compare a;
  let n = Array.length a in
  a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let median_float xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let geomean xs =
  match xs with
  | [] -> invalid_arg "geomean of nothing"
  | _ ->
      exp
        (List.fold_left (fun acc x -> acc +. log x) 0. xs
        /. float_of_int (List.length xs))

let mib_of_bytes b = float_of_int b /. 1048576.

(* This process's resident high-water mark. *)
let peak_rss_mb () =
  mib_of_bytes (Obs.Resource.sample_process ()).Obs.Resource.peak_rss_bytes

(* Machine-speed calibration.  On the shared 2-vCPU VM the benchmark was
   built on, the speed of the program drifts by tens of percent over
   minutes, and every timing drifts with it.  A fixed kernel that runs
   none of the program's code, timed on the same CPU every few hundred
   milliseconds between ops, measures the speed the ops around it ran
   at, and each op's latency is scaled to the reference machine, where
   one kernel takes [reference_kernel_ns].  The program's own speed-ups
   and slow-downs pass through unchanged.

   The kernel is the geometric mean of two parts.  An integer loop (the
   mix of bench/sched_bench.ml's calibration_ns) follows the CPU's clock
   but not memory: alone it left a spread of 0.07-0.11 on the throughput
   of the fixed suite-simulate inputs over six runs.  A mix of typical
   OCaml work — balanced-tree inserts, hash-table updates, list building
   and sorting — allocates much as the program does and followed that
   throughput to 0.02-0.03, but alone it did worse than the integer loop
   on scale-compact.  Their geometric mean was never far from the better
   of the two on any workload. *)
let reference_kernel_ns = 16_000_000.

module Int_map = Map.Make (Int)

let integer_part () =
  let acc = ref 0 in
  for i = 1 to 5_000_000 do
    let p = (i, !acc lxor (i * 0x9e3779b1)) in
    acc := fst p + (snd p lsr 7)
  done;
  ignore (Sys.opaque_identity !acc)

let allocating_part () =
  let m = ref Int_map.empty in
  for i = 0 to 15_000 do
    m := Int_map.add ((i * 7919) land 32767) i !m
  done;
  let h = Hashtbl.create 64 in
  for i = 0 to 30_000 do
    Hashtbl.replace h ((i * 31) land 4095) (string_of_int i)
  done;
  let a =
    Array.of_list
      (List.sort compare (List.init 20_000 (fun i -> (i * 7919) land 65535)))
  in
  let acc = ref 0 in
  for r = 0 to 3 do
    Array.iteri (fun i x -> acc := !acc + (x lxor i) + r) a
  done;
  ignore
    (Sys.opaque_identity (!acc, Int_map.cardinal !m, Hashtbl.length h))

let kernel_ns () =
  let time f =
    let t0 = now_ns () in
    f ();
    float_of_int (now_ns () - t0)
  in
  let integer = time integer_part in
  sqrt (integer *. time allocating_part)

let sum a = Array.fold_left ( +. ) 0. a

(* Reference-machine nanoseconds for [ns] measured between kernel
   samples [before] and [after]. *)
let calibrated ~before ~after ns =
  float_of_int ns *. reference_kernel_ns *. 2. /. (before +. after)

let calibrated_s ~before ~after ns = calibrated ~before ~after ns /. 1e9

(* Calibrated op latencies: [kernel.(j)] was sampled right before op
   [j * block], the last sample after the last op, and each op is scaled
   by the samples around its block. *)
let calibrate ~block ~kernel lat_ns =
  Array.mapi
    (fun k ns ->
      let j = k / block in
      calibrated ~before:kernel.(j) ~after:kernel.(j + 1) ns)
    lat_ns

(* Throughput and latency percentiles from the calibrated op latencies
   of the timed loop: [passes] whole passes of equal length in order.
   Each figure is taken per pass, then the median over the passes is
   reported, so a burst of stolen time moves at most a few passes.  The
   timed wall clock is the sum of the op intervals, so the checks between
   ops stay outside it. *)
let latency_metrics ~passes cal_ns =
  let total = Array.length cal_ns in
  let n = total / passes in
  let per_pass f =
    median_float
      (List.init passes (fun p -> f (Array.sub cal_ns (p * n) n)))
  in
  [
    metric ~samples:total "ops_per_s" "1/s"
      (per_pass (fun a -> float_of_int n /. (sum a /. 1e9)));
    metric ~samples:total "op_p50_ms" "ms"
      (per_pass (fun a -> percentile 0.50 a /. 1e6));
    metric ~samples:total "op_p99_ms" "ms"
      (per_pass (fun a -> percentile 0.99 a /. 1e6));
  ]

let ok_ratio ~attempted ~failed =
  metric ~samples:attempted "ok_ratio" "1"
    (float_of_int (attempted - failed) /. float_of_int attempted)

(* [check problems name cond] records a failed check by name. *)
let check problems name cond = if not cond then problems := name :: !problems

let ensure_dir path =
  let rec go p =
    if p <> "" && p <> "." && p <> "/" && not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      Unix.mkdir p 0o755
    end
  in
  go path

let rec remove_tree path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter
        (fun f -> remove_tree (Filename.concat path f))
        (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

(* The human-readable table, then the one-line JSON result (it must be
   the last line of standard output). *)
let print_outcome ~workload ~seed ~traced o =
  Printf.printf "# %s seed=%d trace=%d: %d ops attempted, %d failed\n" workload
    seed
    (if traced then 1 else 0)
    o.attempted o.failed;
  Printf.printf "# op sequence %s\n" o.op_digest;
  List.iter
    (fun p -> Printf.printf "# FAILED CHECK: %s\n" p)
    (List.rev o.problems);
  List.iter
    (fun m ->
      Printf.printf "#   %-28s %16.6f %-6s (n=%d)\n" m.name m.value m.unit_
        m.samples)
    o.metrics;
  let fields =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
          (json_number m.value) m.unit_)
      o.metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (o.problems = []) o.attempted o.failed
    (String.concat ", " fields);
  flush stdout

(* The daemon's error codes, one per-layer count each. *)
let error_codes =
  [
    "parse"; "version"; "bad_request"; "bad_graph"; "unknown_session";
    "replan_failed"; "deadline_exceeded"; "overloaded"; "internal";
  ]

(* The per-layer metrics of the traced run, in report order.  Every
   workload reports all of them; a layer its ops never call reads 0. *)
let per_layer_units =
  [
    ("op_ms", "ms");
    ("compaction.pass_ms", "ms");
    ("compaction.passes", "count");
    ("compaction.useful_ratio", "1");
    ("compaction.alloc_mw", "words");
    ("startup.ms", "ms");
    ("startup.alloc_mw", "words");
    ("validator.ms", "ms");
    ("simulator.ms", "ms");
    ("simulator.messages", "count");
    ("simulator.alloc_mw", "words");
    ("io.parse_ms", "ms");
    ("topology.build_ms", "ms");
    ("export.ms", "ms");
    ("export.bytes", "bytes");
    ("engine.parse_ms", "ms");
    ("engine.resolve_ms", "ms");
    ("engine.cache_lookup_ms", "ms");
    ("engine.compaction_ms", "ms");
    ("engine.replan_ms", "ms");
    ("engine.render_ms", "ms");
    ("engine.export_ms", "ms");
    ("transport_ms", "ms");
    ("engine.hit_ratio", "1");
    ("engine.evictions", "count");
    ("server.queue_wait_p50_ms", "ms");
    ("statefile.bytes", "bytes");
  ]
  @ List.map (fun c -> ("errors." ^ c, "count")) error_codes
  @ [ ("unattributed_ms", "ms"); ("trace.overhead_ratio", "1") ]

(* [per_layer ~samples values] fills the full list from the measured
   [(name, value)] pairs; names missing from [values] read 0. *)
let per_layer ~samples values =
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name per_layer_units) then
        invalid_arg ("unknown per-layer metric " ^ name))
    values;
  List.map
    (fun (name, unit_) ->
      metric ~samples name unit_
        (Option.value ~default:0. (List.assoc_opt name values)))
    per_layer_units

(* Whole passes a run of [seconds] makes over an op list of [ops],
   from the workload's nominal rate on the reference machine — a fixed
   count, never "as many as fit", so every run's op mix is whole. *)
let passes ~seconds ~nominal_ops_per_s ~ops =
  max 1
    (int_of_float
       (Float.round
          (float_of_int seconds *. nominal_ops_per_s /. float_of_int ops)))

(* The end-to-end metrics, in report order.  [lengths] and [periods] are
   the schedule lengths and simulated periods of the workload's fixed
   distinct requests. *)
let end_to_end ~setup_s ~setup_samples ~passes ~cal_ns ~failed ~peak_rss_mb
    ~lengths ~periods =
  (metric ~samples:setup_samples "setup_s" "s" setup_s
  :: latency_metrics ~passes cal_ns)
  @ [
      ok_ratio ~attempted:(Array.length cal_ns) ~failed;
      metric "peak_rss_mb" "MiB" peak_rss_mb;
      metric ~samples:(List.length lengths) "len_geomean" "steps"
        (geomean lengths);
      metric ~samples:(List.length periods) "period_geomean" "steps"
        (geomean periods);
    ]
