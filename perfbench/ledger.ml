(* The traced run's span ledger.  The benchmark's own code wraps each
   call into a program layer in [span]; nothing inside lib/ is
   instrumented.  Spans are kept in memory (name, op id, parent, start,
   end, minor words allocated inside) and written out when the run
   ends.  With the ledger off, [span name f] is just [f ()].

   A span's self time is its duration minus its children's durations,
   so within one op the self times of all its spans add up to the op's
   duration by construction; the root op span's self time is the part no
   layer claimed, reported as [unattributed_ms].  What can go wrong is
   the nesting, and [misnested] counts the spans that break it: every
   span must lie inside its parent's interval, and no span's children
   may take longer than it does, so no self time (not even
   [unattributed_ms]) is negative. *)

type t = {
  mutable len : int;
  mutable name : string array;
  mutable op : int array;
  mutable parent : int array;
  mutable start : int array;
  mutable stop : int array;
  mutable words : float array;
}

let ledger =
  {
    len = 0;
    name = [||];
    op = [||];
    parent = [||];
    start = [||];
    stop = [||];
    words = [||];
  }

let on = ref false
let current_op = ref 0
let current_parent = ref (-1)

let grow () =
  let cap = max 1024 (2 * Array.length ledger.op) in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 ledger.len;
    b
  in
  ledger.name <- extend ledger.name "";
  ledger.op <- extend ledger.op 0;
  ledger.parent <- extend ledger.parent 0;
  ledger.start <- extend ledger.start 0;
  ledger.stop <- extend ledger.stop 0;
  ledger.words <- extend ledger.words 0.

(* Append a finished span; returns its index. *)
let push ~name ~parent ~start ~stop ~words =
  if ledger.len = Array.length ledger.op then grow ();
  let i = ledger.len in
  ledger.len <- i + 1;
  ledger.name.(i) <- name;
  ledger.op.(i) <- !current_op;
  ledger.parent.(i) <- parent;
  ledger.start.(i) <- start;
  ledger.stop.(i) <- stop;
  ledger.words.(i) <- words;
  i

let span name f =
  if not !on then f ()
  else begin
    let i = push ~name ~parent:!current_parent ~start:0 ~stop:0 ~words:0. in
    let saved = !current_parent in
    current_parent := i;
    let w0 = Gc.minor_words () in
    let t0 = Common.now_ns () in
    let x = f () in
    let t1 = Common.now_ns () in
    ledger.words.(i) <- Gc.minor_words () -. w0;
    ledger.start.(i) <- t0;
    ledger.stop.(i) <- t1;
    current_parent := saved;
    x
  end

(* Spans measured elsewhere (a daemon's reply trace), in the order they
   ran: only their durations are known, so they are laid out one after
   the other from their parent's start.  They fit inside the parent
   only if their durations add up to no more than its own. *)
let external_spans ~parent spans =
  let saved = !current_op in
  current_op := ledger.op.(parent);
  ignore
    (List.fold_left
       (fun t0 (name, ns) ->
         ignore (push ~name ~parent ~start:t0 ~stop:(t0 + ns) ~words:0.);
         t0 + ns)
       ledger.start.(parent) spans);
  current_op := saved

(* Run [f] as op [id], under a root span named "op". *)
let op id f =
  current_op := id;
  span "op" f

let start () =
  ledger.len <- 0;
  on := true

let stop () = on := false

let duration i = ledger.stop.(i) - ledger.start.(i)

let self_times () =
  let self = Array.init ledger.len duration in
  for i = 0 to ledger.len - 1 do
    let p = ledger.parent.(i) in
    if p >= 0 then self.(p) <- self.(p) - duration i
  done;
  self

(* Spans that break the nesting: outside their parent's interval, or
   with children that take longer than they do. *)
let misnested self =
  let bad = ref 0 in
  for i = 0 to ledger.len - 1 do
    let p = ledger.parent.(i) in
    let inside =
      p < 0
      || (ledger.start.(p) <= ledger.start.(i)
         && ledger.stop.(i) <= ledger.stop.(p))
    in
    if self.(i) < 0 || not inside then incr bad
  done;
  !bad

(* Per-op totals: for every op id, the op's duration and, per layer
   name, the summed self time and minor words. *)
type op_total = {
  mutable op_ns : int;
  self_ns : (string, int) Hashtbl.t;
  alloc : (string, float) Hashtbl.t;
}

let totals self =
  let ops = Hashtbl.create 1024 in
  for i = 0 to ledger.len - 1 do
    let id = ledger.op.(i) in
    let t =
      match Hashtbl.find_opt ops id with
      | Some t -> t
      | None ->
          let t =
            {
              op_ns = 0;
              self_ns = Hashtbl.create 16;
              alloc = Hashtbl.create 16;
            }
          in
          Hashtbl.add ops id t;
          t
    in
    if ledger.parent.(i) < 0 then t.op_ns <- duration i;
    let name = ledger.name.(i) in
    let add tbl v zero ( + ) =
      Hashtbl.replace tbl name
        (Option.value ~default:zero (Hashtbl.find_opt tbl name) + v)
    in
    add t.self_ns self.(i) 0 ( + );
    add t.alloc ledger.words.(i) 0. ( +. )
  done;
  Hashtbl.fold (fun _ t acc -> t :: acc) ops []

(* Mean over ops of a layer's self time (ms) and of its minor words. *)
let mean_self_ms totals name =
  let n = List.length totals in
  let sum =
    List.fold_left
      (fun acc t ->
        acc + Option.value ~default:0 (Hashtbl.find_opt t.self_ns name))
      0 totals
  in
  Common.ms_of_ns sum /. float_of_int (max 1 n)

let mean_alloc totals name =
  let n = List.length totals in
  List.fold_left
    (fun acc t ->
      acc +. Option.value ~default:0. (Hashtbl.find_opt t.alloc name))
    0. totals
  /. float_of_int (max 1 n)

let write path =
  Common.ensure_dir (Filename.dirname path);
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  for i = 0 to ledger.len - 1 do
    Printf.fprintf oc
      "{\"span\":%d,\"op\":%d,\"parent\":%d,\"name\":%S,\"start_ns\":%d,\
       \"end_ns\":%d,\"minor_words\":%.0f}\n"
      i ledger.op.(i) ledger.parent.(i) ledger.name.(i) ledger.start.(i)
      ledger.stop.(i) ledger.words.(i)
  done

(* Layer self times and allocations of the traced ops, as per-layer
   values; also checks the nesting of every span. *)
let values problems layers =
  let self = self_times () in
  let bad = misnested self in
  Common.check problems
    (Printf.sprintf
       "ledger: every span inside its parent, no negative self time (%d \
        spans off)"
       bad)
    (bad = 0);
  let totals = totals self in
  let n = float_of_int (max 1 (List.length totals)) in
  ( "op_ms",
    List.fold_left (fun a t -> a +. Common.ms_of_ns t.op_ns) 0. totals /. n )
  :: ("unattributed_ms", mean_self_ms totals "op")
  :: List.map
       (fun (metric_name, span, kind) ->
         ( metric_name,
           match kind with
           | `Ms -> mean_self_ms totals span
           | `Words -> mean_alloc totals span ))
       layers

(* The in-process layers of the suite and scale ops. *)
let in_process_layers =
  [
    ("compaction.pass_ms", "compaction.pass", `Ms);
    ("compaction.alloc_mw", "compaction.pass", `Words);
    ("startup.ms", "startup", `Ms);
    ("startup.alloc_mw", "startup", `Words);
    ("validator.ms", "validator", `Ms);
    ("simulator.ms", "simulator", `Ms);
    ("simulator.alloc_mw", "simulator", `Words);
    ("io.parse_ms", "io.parse", `Ms);
    ("topology.build_ms", "topology.build", `Ms);
    ("export.ms", "export", `Ms);
  ]

(* Op id -> index of that op's span called [name]. *)
let spans_named name =
  let t = Hashtbl.create 1024 in
  for i = 0 to ledger.len - 1 do
    if ledger.name.(i) = name then Hashtbl.replace t ledger.op.(i) i
  done;
  t
