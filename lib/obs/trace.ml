type span = {
  name : string;
  args : (string * string) list;
  start_ns : int;
  dur_ns : int;
  minor_words : int;
  promoted_words : int;
  major_words : int;
  minor_collections : int;
  major_collections : int;
  top_heap_words : int;
  depth : int;
  domain : int;
  seq : int;
}

let collection : span Collector.t = Collector.create ()

external monotonic_ns : unit -> int64 = "obs_clock_monotonic_ns"

(* Clock origin, written by [enable] before the switch flips; probes only
   read it while enabled, so the plain ref never yields a torn value a
   recording could observe.  CLOCK_MONOTONIC (not gettimeofday): span
   durations must stay non-negative across wall-clock adjustments. *)
let t0 = ref 0

let now_ns () = Int64.to_int (monotonic_ns ()) - !t0
let enabled () = Collector.enabled collection
let reset () = Collector.reset collection

let enable () =
  t0 := Int64.to_int (monotonic_ns ());
  Collector.enable collection

let disable () = Collector.disable collection

(* [Gc.quick_stat] never walks the heap (unlike [Gc.stat]), so an
   enabled probe costs two clock and two stat reads: cheap at the span
   granularity used here (whole passes and runs, not inner loops).  The
   stat is read outside the clock readings, so a span's duration leaves
   out its own stat reads.  Its [minor_words] only advances at a minor
   collection on OCaml 5, so a span's minor words come from
   [Gc.minor_words ()] instead: exact, allocation-free, and read
   innermost, so the probe's own allocations stay out of the count. *)
let with_span ?(args = []) name f =
  if not (Collector.enabled collection) then f ()
  else begin
    let q0 = Gc.quick_stat () in
    let start = now_ns () in
    let m0 = Gc.minor_words () in
    let close ~domain ~seq ~depth =
      let m1 = Gc.minor_words () in
      let stop = now_ns () in
      let q1 = Gc.quick_stat () in
      let words a b = max 0 (int_of_float (a -. b)) in
      {
        name;
        args;
        start_ns = start;
        dur_ns = max 0 (stop - start);
        minor_words = words m1 m0;
        promoted_words = words q1.Gc.promoted_words q0.Gc.promoted_words;
        major_words = words q1.Gc.major_words q0.Gc.major_words;
        minor_collections =
          max 0 (q1.Gc.minor_collections - q0.Gc.minor_collections);
        major_collections =
          max 0 (q1.Gc.major_collections - q0.Gc.major_collections);
        top_heap_words = max 0 (q1.Gc.top_heap_words - q0.Gc.top_heap_words);
        depth;
        domain;
        seq;
      }
    in
    Collector.region collection ~close f
  end

let spans () = Collector.items collection

let aggregate () =
  let table : (string, (int * int) ref) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun sp ->
      match Hashtbl.find_opt table sp.name with
      | Some cell ->
          let count, total = !cell in
          cell := (count + 1, total + sp.dur_ns)
      | None -> Hashtbl.add table sp.name (ref (1, sp.dur_ns)))
    (spans ());
  Hashtbl.fold (fun name cell acc -> (name, fst !cell, snd !cell) :: acc) table []
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
