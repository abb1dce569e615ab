(* Memory attribution over Trace's spans, and process-level memory
   gauges.  A span already carries the allocation deltas of its
   window (Trace reads them at open and close); this module rolls them
   up by name, samples the process as a whole, and publishes that
   sample into the Counters registry. *)

type rollup = {
  r_count : int;
  r_minor_words : int;
  r_promoted_words : int;
  r_major_words : int;
  r_minor_collections : int;
  r_major_collections : int;
  r_top_heap_words : int;  (* max single-span high-water growth *)
}

let zero =
  {
    r_count = 0;
    r_minor_words = 0;
    r_promoted_words = 0;
    r_major_words = 0;
    r_minor_collections = 0;
    r_major_collections = 0;
    r_top_heap_words = 0;
  }

let aggregate () =
  let table : (string, rollup) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (sp : Trace.span) ->
      let r = Option.value (Hashtbl.find_opt table sp.name) ~default:zero in
      Hashtbl.replace table sp.name
        {
          r_count = r.r_count + 1;
          r_minor_words = r.r_minor_words + sp.minor_words;
          r_promoted_words = r.r_promoted_words + sp.promoted_words;
          r_major_words = r.r_major_words + sp.major_words;
          r_minor_collections = r.r_minor_collections + sp.minor_collections;
          r_major_collections = r.r_major_collections + sp.major_collections;
          r_top_heap_words = max r.r_top_heap_words sp.top_heap_words;
        })
    (Trace.spans ());
  Hashtbl.fold (fun name r acc -> (name, r) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* ------------------------------------------------------------------ *)
(* Process-level sampling                                              *)
(* ------------------------------------------------------------------ *)

external page_size_stub : unit -> int = "obs_page_size"

let page_size = page_size_stub ()
let word_bytes = Sys.word_size / 8

(* /proc/self/statm column 2 is resident pages; /proc/self/status
   VmHWM is the resident high-water mark in kB.  Both reads use the
   stdlib only (this library deliberately has no unix dependency) and
   degrade gracefully off Linux: current RSS falls back to the major
   heap size — an underestimate, but a monotone, portable one — and the
   peak falls back to the highest RSS this module has ever sampled. *)

let statm_rss_bytes () =
  match open_in "/proc/self/statm" with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          match String.split_on_char ' ' (input_line ic) with
          | _ :: resident :: _ -> (
              match int_of_string_opt resident with
              | Some pages when pages >= 0 -> Some (pages * page_size)
              | _ -> None)
          | _ | (exception End_of_file) -> None)

let status_peak_rss_bytes () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec scan () =
            match input_line ic with
            | exception End_of_file -> None
            | line ->
                if String.length line > 6 && String.sub line 0 6 = "VmHWM:"
                then
                  String.sub line 6 (String.length line - 6)
                  |> String.split_on_char ' '
                  |> List.find_opt (fun tok ->
                         tok <> "" && tok.[0] >= '0' && tok.[0] <= '9')
                  |> Option.map (fun kb -> int_of_string kb * 1024)
                else scan ()
          in
          try scan () with _ -> None)

let peak_seen = Atomic.make 0

type process_sample = {
  rss_bytes : int;
  peak_rss_bytes : int;
  heap_words : int;
  p_top_heap_words : int;
  p_minor_words : int;
  p_promoted_words : int;
  p_major_words : int;
  p_minor_collections : int;
  p_major_collections : int;
}

let sample_process () =
  let q = Gc.quick_stat () in
  let rss =
    match statm_rss_bytes () with
    | Some b -> b
    | None -> q.Gc.heap_words * word_bytes
  in
  (* keep the portable peak fallback fresh even when /proc is there *)
  let rec raise_peak () =
    let seen = Atomic.get peak_seen in
    if rss > seen && not (Atomic.compare_and_set peak_seen seen rss) then
      raise_peak ()
  in
  raise_peak ();
  let peak =
    match status_peak_rss_bytes () with
    | Some b -> max b rss
    | None -> Atomic.get peak_seen
  in
  {
    rss_bytes = rss;
    peak_rss_bytes = peak;
    heap_words = q.Gc.heap_words;
    p_top_heap_words = q.Gc.top_heap_words;
    p_minor_words = int_of_float q.Gc.minor_words;
    p_promoted_words = int_of_float q.Gc.promoted_words;
    p_major_words = int_of_float q.Gc.major_words;
    p_minor_collections = q.Gc.minor_collections;
    p_major_collections = q.Gc.major_collections;
  }

(* Gauge handles live in the shared Counters registry so the existing
   read paths — Exposition.render, --metrics, ccsched top — pick them
   up without new plumbing.  The gc.* totals are Prometheus counters
   (cumulative, monotone) even though they are written with [set]: kind
   describes scrape semantics, not the update verb. *)

let g_rss = Counters.gauge "process.resident_memory_bytes"
let g_peak_rss = Counters.gauge "process.peak_resident_memory_bytes"
let g_heap_words = Counters.gauge "gc.heap_words"
let g_top_heap_words = Counters.gauge "gc.top_heap_words"
let c_minor_words = Counters.counter "gc.minor_words"
let c_promoted_words = Counters.counter "gc.promoted_words"
let c_major_words = Counters.counter "gc.major_words"
let c_minor_cols = Counters.counter "gc.minor_collections"
let c_major_cols = Counters.counter "gc.major_collections"

let refresh_process_gauges () =
  if Counters.enabled () then begin
    let s = sample_process () in
    Counters.set g_rss s.rss_bytes;
    Counters.set g_peak_rss s.peak_rss_bytes;
    Counters.set g_heap_words s.heap_words;
    Counters.set g_top_heap_words s.p_top_heap_words;
    Counters.set c_minor_words s.p_minor_words;
    Counters.set c_promoted_words s.p_promoted_words;
    Counters.set c_major_words s.p_major_words;
    Counters.set c_minor_cols s.p_minor_collections;
    Counters.set c_major_cols s.p_major_collections
  end

(* ------------------------------------------------------------------ *)
(* Export                                                              *)
(* ------------------------------------------------------------------ *)

let rollup_json () =
  let b = Buffer.create 1024 in
  let field k v =
    Buffer.add_char b ',';
    Json.Writer.add_field_int b k v
  in
  Buffer.add_string b "{\"spans\": [";
  List.iteri
    (fun i (name, r) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b "\n    {";
      Json.Writer.add_field_str b "span" name;
      field "count" r.r_count;
      field "minor_words" r.r_minor_words;
      field "promoted_words" r.r_promoted_words;
      field "major_words" r.r_major_words;
      field "minor_collections" r.r_minor_collections;
      field "major_collections" r.r_major_collections;
      field "top_heap_words" r.r_top_heap_words;
      Buffer.add_char b '}')
    (aggregate ());
  Buffer.add_string b "\n  ],\n  \"process\": {";
  let s = sample_process () in
  Json.Writer.add_field_int b "rss_bytes" s.rss_bytes;
  field "peak_rss_bytes" s.peak_rss_bytes;
  field "heap_words" s.heap_words;
  field "top_heap_words" s.p_top_heap_words;
  field "minor_words" s.p_minor_words;
  field "promoted_words" s.p_promoted_words;
  field "major_words" s.p_major_words;
  field "minor_collections" s.p_minor_collections;
  field "major_collections" s.p_major_collections;
  Buffer.add_string b "}}";
  Buffer.contents b

let pp_summary ppf () =
  let rows = aggregate () in
  if rows = [] then Format.fprintf ppf "no spans recorded@."
  else begin
    Format.fprintf ppf "%-28s %8s %14s %12s %8s %8s@." "span" "count"
      "minor words" "major words" "min gcs" "maj gcs";
    List.iter
      (fun (name, r) ->
        Format.fprintf ppf "%-28s %8d %14d %12d %8d %8d@." name r.r_count
          r.r_minor_words r.r_major_words r.r_minor_collections
          r.r_major_collections)
      rows
  end
