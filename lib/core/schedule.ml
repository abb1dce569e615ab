module Csdfg = Dataflow.Csdfg
module Imap = Map.Make (Int)

type entry = { cb : int; pe : int }

(* One occupied run of control steps on a processor.  Per-processor
   indexes are keyed by [lo] and pairwise disjoint (assign enforces
   disjointness), so ascending [lo] order is also ascending [hi] order.

   Both the node table and the occupancy index are persistent maps, not
   arrays: compaction's undo/compare style relies on cheap persistent
   snapshots, and the previous array-copy-per-assign plus
   scan-from-the-head interval lists made every placement O(nodes) —
   the whole start-up sweep went quadratic, which the 10^5-node scale
   tier cannot afford.  Every occupancy query below is one O(log)
   neighbour lookup instead.

   Both maps store index rows, which sit [shift] above table rows: a
   uniform shift of the whole table (one per compaction pass) only bumps
   [shift], instead of rebuilding every entry and interval. *)
type interval = { lo : int; hi : int; node : int }

type t = {
  dfg : Csdfg.t;  (* the graph the schedule was built on, never rewritten *)
  retiming : int array;  (* cumulative retiming r, per node *)
  comm : Comm.t;
  speeds : int array;  (* per-processor cycle-time multiplier, >= 1 *)
  entries : entry Imap.t;  (* node id -> placement, [cb] an index row *)
  assigned : int;  (* cardinal of [entries] *)
  occ : interval Imap.t array;  (* occupancy index: lo -> interval, per PE *)
  shift : int;  (* index row = table row + shift *)
  length : int;
}

let insert_interval iv m = Imap.add iv.lo iv m
let remove_interval lo m = Imap.remove lo m

(* The last interval starting at or before [cs] is the only one that can
   cover [cs]. *)
let covering m cs =
  match Imap.find_last_opt (fun lo -> lo <= cs) m with
  | Some (_, iv) when cs <= iv.hi -> Some iv
  | _ -> None

let empty ?speeds ?retiming dfg comm =
  let np = Comm.n_processors comm in
  let speeds =
    match speeds with
    | None -> Array.make np 1
    | Some s ->
        if Array.length s <> np then
          invalid_arg "Schedule.empty: speeds size differs from processors";
        Array.iter
          (fun x ->
            if x <= 0 then invalid_arg "Schedule.empty: non-positive speed")
          s;
        Array.copy s
  in
  let retiming =
    match retiming with
    | None -> Array.make (Csdfg.n_nodes dfg) 0
    | Some r ->
        if Array.length r <> Csdfg.n_nodes dfg then
          invalid_arg "Schedule.empty: retiming size differs from nodes";
        Array.copy r
  in
  { dfg; retiming; comm; speeds; entries = Imap.empty; assigned = 0;
    occ = Array.make np Imap.empty; shift = 0; length = 0 }

let speeds t = Array.copy t.speeds
let is_heterogeneous t = Array.exists (fun s -> s <> t.speeds.(0)) t.speeds

let duration t ~node ~pe =
  if node < 0 || node >= Csdfg.n_nodes t.dfg then
    invalid_arg "Schedule.duration: node out of range";
  if pe < 0 || pe >= Array.length t.speeds then
    invalid_arg "Schedule.duration: processor out of range";
  Csdfg.time t.dfg node * t.speeds.(pe)

let dfg t = t.dfg
let retiming t = Array.copy t.retiming
(* Spelled out rather than calling [Dataflow.Retiming.retimed_delay]:
   the timing, remap, validator and simulator loops read it per edge,
   and the cross-module call was not inlined. *)
let[@inline] delay t (e : Csdfg.attr Digraph.Graph.edge) =
  e.label.delay + t.retiming.(e.src) - t.retiming.(e.dst)

let retime t nodes =
  let retiming = Array.copy t.retiming in
  List.iter
    (fun v ->
      if v < 0 || v >= Array.length retiming then
        invalid_arg "Schedule.retime: node out of range";
      retiming.(v) <- retiming.(v) + 1)
    nodes;
  { t with retiming }

let comm t = t.comm
let length t = t.length
let n_processors t = Comm.n_processors t.comm

let stored t v =
  if v < 0 || v >= Csdfg.n_nodes t.dfg then
    invalid_arg "Schedule.entry: node out of range";
  Imap.find_opt v t.entries

let entry t v =
  match stored t v with
  | Some e when t.shift <> 0 -> Some { e with cb = e.cb - t.shift }
  | e -> e

let is_assigned t v = stored t v <> None
let assigned_all t = t.assigned = Csdfg.n_nodes t.dfg
let n_assigned t = t.assigned

let get_exn t v ctx =
  match stored t v with
  | Some e -> e
  | None ->
      invalid_arg
        (Printf.sprintf "Schedule.%s: node %s is not assigned" ctx
           (Csdfg.label t.dfg v))

let cb t v = (get_exn t v "cb").cb - t.shift
let pe t v = (get_exn t v "pe").pe

let span t v (e : entry) = Csdfg.time t.dfg v * t.speeds.(e.pe)
let ce t v =
  let e = get_exn t v "ce" in
  e.cb - t.shift + span t v e - 1

(* Disjoint intervals sorted by [lo] are also sorted by [hi], so the
   last interval of each processor carries that processor's largest CE. *)
let rows_needed t =
  Array.fold_left
    (fun acc m ->
      match Imap.max_binding_opt m with
      | Some (_, iv) -> max acc (iv.hi - t.shift)
      | None -> acc)
    0 t.occ

let set_length t len =
  if len < rows_needed t then
    invalid_arg "Schedule.set_length: shorter than occupied rows";
  { t with length = len }

(* One tally for every query served by the occupancy index; a single
   atomic-flag read when observability is off (the default). *)
let c_occupancy_queries = Obs.Counters.counter "schedule.occupancy_queries"

let node_at t ~pe ~cs =
  Obs.Counters.incr c_occupancy_queries;
  match covering t.occ.(pe) (cs + t.shift) with
  | Some iv -> Some iv.node
  | None -> None

(* An overlap of [cb .. cb+width-1] (index rows) must be the last
   interval starting at or before the window's end. *)
let free_at m ~cb ~width =
  match Imap.find_last_opt (fun lo -> lo <= cb + width - 1) m with
  | Some (_, iv) -> iv.hi < cb
  | None -> true

let is_free t ~pe ~cb ~span:width =
  Obs.Counters.incr c_occupancy_queries;
  free_at t.occ.(pe) ~cb:(cb + t.shift) ~width

let assign t ~node ~cb ~pe =
  if cb < 1 then invalid_arg "Schedule.assign: control steps start at 1";
  if pe < 0 || pe >= n_processors t then
    invalid_arg "Schedule.assign: processor out of range";
  if is_assigned t node then
    invalid_arg
      (Printf.sprintf "Schedule.assign: node %s already assigned"
         (Csdfg.label t.dfg node));
  let span = duration t ~node ~pe in
  if not (free_at t.occ.(pe) ~cb:(cb + t.shift) ~width:span) then
    invalid_arg
      (Printf.sprintf "Schedule.assign: slot pe%d cs%d..%d is occupied" (pe + 1)
         cb (cb + span - 1));
  let lo = cb + t.shift in
  let entries = Imap.add node { cb = lo; pe } t.entries in
  let occ = Array.copy t.occ in
  occ.(pe) <- insert_interval { lo; hi = lo + span - 1; node } occ.(pe);
  { t with entries; assigned = t.assigned + 1; occ;
    length = max t.length (cb + span - 1) }

let unassign t node =
  let e = get_exn t node "unassign" in
  let entries = Imap.remove node t.entries in
  let occ = Array.copy t.occ in
  occ.(e.pe) <- remove_interval e.cb occ.(e.pe);
  { t with entries; assigned = t.assigned - 1; occ }

let unassign_all t nodes = List.fold_left unassign t nodes

let with_comm t comm =
  if Comm.n_processors comm <> Comm.n_processors t.comm then
    invalid_arg "Schedule.with_comm: processor count differs";
  { t with comm }

let first_free_slot t ~pe ~from ~span:width =
  Obs.Counters.incr c_occupancy_queries;
  (* A window free at [from] costs one neighbour lookup.  Otherwise one
     split at [from] and an in-order walk from the interval covering it:
     when the window [cs .. cs+width-1] overlaps the next interval, every
     later window before that interval's end overlaps it too (intervals
     are disjoint and the window is fixed-width), so jumping to its
     [hi + 1] skips no feasible start. *)
  let m = t.occ.(pe) and start = max 1 from + t.shift in
  if free_at m ~cb:start ~width then start - t.shift
  else begin
    let cs =
      ref (match covering m start with Some iv -> iv.hi + 1 | None -> start)
    in
    let _, _, after = Imap.split start m in
    let exception Fits of int in
    match
      Imap.iter
        (fun lo iv ->
          if lo >= !cs + width then raise_notrace (Fits !cs);
          cs := iv.hi + 1)
        after
    with
    | () -> !cs - t.shift
    | exception Fits cs -> cs - t.shift
  end

let first_row t =
  (* Only a processor's first interval can start at row 1. *)
  let heads =
    Array.fold_left
      (fun acc m ->
        match Imap.min_binding_opt m with
        | Some (_, iv) when iv.lo = 1 + t.shift -> iv.node :: acc
        | _ -> acc)
      [] t.occ
  in
  List.sort compare heads

let shift_up t =
  (match first_row t with
  | v :: _ ->
      invalid_arg
        (Printf.sprintf "Schedule.shift_up: node %s starts at row 1"
           (Csdfg.label t.dfg v))
  | [] -> ());
  { t with shift = t.shift + 1; length = max 0 (t.length - 1) }

let normalize t =
  let rec settle t =
    if n_assigned t > 0 && first_row t = [] then settle (shift_up t) else t
  in
  let t = settle t in
  let rows = rows_needed t in
  if t.length > rows && rows > 0 then { t with length = rows } else t

let iter_placements f t =
  let shift = t.shift in
  Imap.iter (fun v e -> f v ~cb:(e.cb - shift) ~pe:e.pe) t.entries

(* The same walk in dense id order: [gap v] for every unassigned node in
   between.  The three digests below read nodes this way, so their
   results are bit-for-bit what the array representation produced —
   portfolio's deterministic result rule and the golden signatures
   depend on that. *)
let iter_dense ~gap f t =
  let next = ref 0 in
  iter_placements
    (fun v ~cb ~pe ->
      for u = !next to v - 1 do gap u done;
      f v ~cb ~pe;
      next := v + 1)
    t;
  for u = !next to Csdfg.n_nodes t.dfg - 1 do gap u done

(* Order on the length, then on each node's cb and pe (-1 when
   unassigned) in id order. *)
let compare_assignments a b =
  let key t =
    let dense = Array.make (2 * Csdfg.n_nodes t.dfg) (-1) in
    iter_placements
      (fun v ~cb ~pe ->
        dense.(2 * v) <- cb;
        dense.((2 * v) + 1) <- pe)
      t;
    (t.length, dense)
  in
  compare (key a) (key b)

let signature t =
  let buf = Buffer.create 64 in
  Buffer.add_string buf (string_of_int t.length);
  iter_dense
    ~gap:(fun _ -> Buffer.add_string buf ";_")
    (fun _ ~cb ~pe ->
      Buffer.add_char buf ';';
      Buffer.add_string buf (string_of_int cb);
      Buffer.add_char buf '@';
      Buffer.add_string buf (string_of_int pe))
    t;
  Buffer.contents buf

(* FNV-1a over (length, per-node cb/pe, -1 for an unassigned node);
   native-int wraparound is the implicit modulus.  Equal assignments
   hash equal; the converse holds up to hash collisions — callers
   needing certainty use [compare_assignments]. *)
let hash t =
  let mix h x = (h lxor x) * 0x100000001b3 in
  let h = ref (mix 0x2545f4914f6cdd1d t.length) in
  iter_dense
    ~gap:(fun _ -> h := mix !h (-1))
    (fun _ ~cb ~pe -> h := mix (mix !h cb) pe)
    t;
  !h land max_int

let pp ppf t =
  let np = n_processors t in
  let len = max t.length (rows_needed t) in
  let cell cs p =
    match node_at t ~pe:p ~cs with
    | Some v -> Csdfg.label t.dfg v
    | None -> ""
  in
  let width =
    let w = ref 3 in
    List.iter (fun v -> w := max !w (String.length (Csdfg.label t.dfg v)))
      (Csdfg.nodes t.dfg);
    !w + 1
  in
  Fmt.pf ppf "@[<v>";
  Fmt.pf ppf "cs  ";
  for p = 0 to np - 1 do
    Fmt.pf ppf "%-*s" width (Printf.sprintf "pe%d" (p + 1))
  done;
  for cs = 1 to len do
    Fmt.pf ppf "@,%-4d" cs;
    for p = 0 to np - 1 do
      Fmt.pf ppf "%-*s" width (cell cs p)
    done
  done;
  Fmt.pf ppf "@]"

let pp_compact ppf t =
  Fmt.pf ppf "%s on %s: length %d (%d/%d nodes assigned)"
    (Csdfg.name t.dfg) (Comm.name t.comm) t.length (n_assigned t)
    (Csdfg.n_nodes t.dfg)
