(* Log2-bucketed distributions behind the Counters switch: registration
   under a mutex, recording via atomics only, one atomic flag load when
   disabled.  Every cell is a [Counters.cell], so the metrics switch
   zeroes histograms with the counters. *)

let n_buckets = 64
(* bucket 0: v <= 0; bucket i >= 1: 2^(i-1) <= v < 2^i, upper bound
   2^i - 1.  63-bit ints need at most 63 value buckets. *)

type t = {
  name : string;
  counts : int Atomic.t array;  (* n_buckets cells *)
  total : int Atomic.t;
  sum : int Atomic.t;
}

let lock = Mutex.create ()
let table : (string, t) Hashtbl.t = Hashtbl.create 16

let histogram name =
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt table name with
      | Some h -> h
      | None ->
          let h =
            {
              name;
              counts = Array.init n_buckets (fun _ -> Counters.cell ());
              total = Counters.cell ();
              sum = Counters.cell ();
            }
          in
          Hashtbl.add table name h;
          h)

let name h = h.name

let bucket_of v =
  if v <= 0 then 0
  else begin
    let i = ref 0 and v = ref v in
    while !v > 0 do
      incr i;
      v := !v lsr 1
    done;
    min !i (n_buckets - 1)
  end

let upper_bound i = if i = 0 then 0 else (1 lsl i) - 1

let observe h v =
  if Counters.enabled () then begin
    ignore (Atomic.fetch_and_add h.counts.(bucket_of v) 1);
    ignore (Atomic.fetch_and_add h.total 1);
    ignore (Atomic.fetch_and_add h.sum (max 0 v))
  end

let count h = Atomic.get h.total
let sum h = Atomic.get h.sum

let mean h =
  let n = count h in
  if n = 0 then 0. else float_of_int (sum h) /. float_of_int n

let quantile h q =
  if not (q >= 0. && q <= 1.) then
    invalid_arg "Histogram.quantile: q outside [0, 1]";
  let n = count h in
  if n = 0 then 0
  else begin
    let target = q *. float_of_int n in
    let acc = ref 0 and result = ref 0 and found = ref false in
    for i = 0 to n_buckets - 1 do
      if not !found then begin
        acc := !acc + Atomic.get h.counts.(i);
        if float_of_int !acc >= target then begin
          found := true;
          result := upper_bound i
        end
      end
    done;
    !result
  end

let buckets h =
  let rows = ref [] in
  for i = n_buckets - 1 downto 0 do
    let c = Atomic.get h.counts.(i) in
    if c > 0 then rows := (upper_bound i, c) :: !rows
  done;
  !rows

type snapshot = {
  s_count : int;
  s_sum : int;
  s_buckets : (int * int) list;
}

(* [s_count] is derived from the bucket reads, not [h.total], so a
   snapshot is internally consistent even when another domain is
   observing concurrently: the +Inf bucket of a Prometheus rendering
   always equals _count. *)
let snap h =
  let rows = ref [] and total = ref 0 in
  for i = n_buckets - 1 downto 0 do
    let c = Atomic.get h.counts.(i) in
    if c > 0 then begin
      rows := (upper_bound i, c) :: !rows;
      total := !total + c
    end
  done;
  { s_count = !total; s_sum = Atomic.get h.sum; s_buckets = !rows }

let snapshot () =
  Mutex.protect lock (fun () ->
      Hashtbl.fold (fun name h acc -> (name, h) :: acc) table [])
  |> List.sort compare
  |> List.map (fun (name, h) -> (name, snap h))

let dump () =
  Mutex.protect lock (fun () ->
      Hashtbl.fold (fun name h acc -> (name, h) :: acc) table [])
  |> List.sort compare
  |> List.map (fun (name, h) -> (name, buckets h))

let pp_summary ppf () =
  let rows =
    Mutex.protect lock (fun () ->
        Hashtbl.fold (fun name h acc -> (name, h) :: acc) table [])
    |> List.sort compare
  in
  if rows = [] then Format.fprintf ppf "no histograms registered@."
  else
    List.iter
      (fun (name, h) ->
        Format.fprintf ppf
          "%-32s count %8d  sum %10d  mean %10.1f  p50<=%d p90<=%d p99<=%d@."
          name (count h) (sum h) (mean h) (quantile h 0.5) (quantile h 0.9)
          (quantile h 0.99))
      rows
