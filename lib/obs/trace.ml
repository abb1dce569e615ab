type span = {
  name : string;
  args : (string * string) list;
  start_ns : int;
  dur_ns : int;
  depth : int;
  domain : int;
  seq : int;
}

(* A frame is compared physically on close so that an [enable]/[reset]
   racing with an open span simply drops that span instead of corrupting
   the new collection. *)
type frame = {
  f_name : string;
  f_args : (string * string) list;
  f_start : int;
  f_seq : int;
}

type stream = {
  mutable tag : int;
  mutable epoch : int;
  mutable stack : frame list;
  mutable closed : span list;  (* newest first *)
  mutable next_seq : int;
}

let enabled_flag = Atomic.make false
let epoch = Atomic.make 0
let next_tag = Atomic.make 0
let registry_lock = Mutex.create ()
let registry : stream list ref = ref []

external monotonic_ns : unit -> int64 = "obs_clock_monotonic_ns"

(* Clock origin, written by [enable] before the flag flips; probes only
   read it while enabled, so the plain ref never yields a torn value a
   recording could observe.  CLOCK_MONOTONIC (not gettimeofday): span
   durations must stay non-negative across wall-clock adjustments. *)
let t0 = ref 0

let now_ns () = Int64.to_int (monotonic_ns ()) - !t0

let stream_key : stream Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { tag = -1; epoch = -1; stack = []; closed = []; next_seq = 0 })

(* The calling domain's stream for the current collection.  Streams
   outlive their domains (Parutil joins workers, then the caller
   exports), and a stale stream from a previous collection re-registers
   itself lazily on first use. *)
let stream () =
  let s = Domain.DLS.get stream_key in
  let e = Atomic.get epoch in
  if s.epoch <> e then begin
    s.epoch <- e;
    s.stack <- [];
    s.closed <- [];
    s.next_seq <- 0;
    s.tag <- Atomic.fetch_and_add next_tag 1;
    Mutex.protect registry_lock (fun () -> registry := s :: !registry)
  end;
  s

let enabled () = Atomic.get enabled_flag

let reset () =
  Mutex.protect registry_lock (fun () -> registry := []);
  Atomic.set next_tag 0;
  Atomic.incr epoch

let enable () =
  reset ();
  t0 := Int64.to_int (monotonic_ns ());
  Atomic.set enabled_flag true

let disable () = Atomic.set enabled_flag false

(* Per-span resource attribution (Obs.Resource) is layered on through
   this hook rather than a direct call so the dependency points the
   right way: Resource builds on Trace's span names, not vice versa.
   Resource installs its wrapper at module-init time; until then the
   identity wrapper runs.  The installed wrapper owns its own
   one-atomic-load-when-off discipline, so a probe with both subsystems
   disabled costs two flag loads and zero allocation. *)
type resource_wrapper = { wrap : 'a. string -> (unit -> 'a) -> 'a }

let resource_wrapper = ref { wrap = (fun _name f -> f ()) }
let set_resource_wrapper w = resource_wrapper := w

let with_span ?(args = []) name f =
  if not (Atomic.get enabled_flag) then (!resource_wrapper).wrap name f
  else begin
    let s = stream () in
    let seq = s.next_seq in
    s.next_seq <- seq + 1;
    let frame = { f_name = name; f_args = args; f_start = now_ns (); f_seq = seq } in
    s.stack <- frame :: s.stack;
    let close () =
      let stop = now_ns () in
      match s.stack with
      | top :: rest when top == frame ->
          s.stack <- rest;
          s.closed <-
            {
              name;
              args;
              start_ns = frame.f_start;
              dur_ns = max 0 (stop - frame.f_start);
              depth = List.length rest;
              domain = s.tag;
              seq;
            }
            :: s.closed
      | _ -> ()  (* collection was reset mid-span: drop it *)
    in
    Fun.protect ~finally:close (fun () -> (!resource_wrapper).wrap name f)
  end

let spans () =
  let streams = Mutex.protect registry_lock (fun () -> !registry) in
  List.concat_map (fun s -> s.closed) streams
  |> List.sort (fun a b ->
         match compare a.domain b.domain with
         | 0 -> compare a.seq b.seq
         | c -> c)

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

let pp_summary ppf () =
  let rows = aggregate () in
  if rows = [] then Format.fprintf ppf "no spans recorded@."
  else begin
    Format.fprintf ppf "%-28s %8s %12s %12s@." "span" "count" "total ms"
      "mean us";
    List.iter
      (fun (name, count, total_ns) ->
        Format.fprintf ppf "%-28s %8d %12.3f %12.1f@." name count
          (float_of_int total_ns /. 1e6)
          (float_of_int total_ns /. 1e3 /. float_of_int count))
      rows
  end

let json_escape = Json.Writer.escape

let to_chrome_json ?(counters = []) ?(histograms = []) ?resources () =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [";
  List.iteri
    (fun i sp ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b "\n    ";
      Buffer.add_string b
        (Printf.sprintf
           "{\"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"name\": \"%s\", \
            \"cat\": \"cyclosched\", \"ts\": %.3f, \"dur\": %.3f"
           sp.domain (json_escape sp.name)
           (float_of_int sp.start_ns /. 1e3)
           (float_of_int sp.dur_ns /. 1e3));
      if sp.args <> [] then begin
        Buffer.add_string b ", \"args\": {";
        List.iteri
          (fun j (k, v) ->
            if j > 0 then Buffer.add_string b ", ";
            Buffer.add_string b
              (Printf.sprintf "\"%s\": \"%s\"" (json_escape k) (json_escape v)))
          sp.args;
        Buffer.add_char b '}'
      end;
      Buffer.add_char b '}')
    (spans ());
  Buffer.add_string b "\n  ],\n  \"counters\": {";
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "\n    \"%s\": %d" (json_escape name) v))
    counters;
  Buffer.add_string b "\n  }";
  if histograms <> [] then begin
    Buffer.add_string b ",\n  \"histograms\": {";
    List.iteri
      (fun i (name, buckets) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b
          (Printf.sprintf "\n    \"%s\": [" (json_escape name));
        List.iteri
          (fun j (ub, c) ->
            if j > 0 then Buffer.add_string b ", ";
            Buffer.add_string b (Printf.sprintf "[%d, %d]" ub c))
          buckets;
        Buffer.add_char b ']')
      histograms;
    Buffer.add_string b "\n  }"
  end;
  (match resources with
  | Some json when json <> "" ->
      Buffer.add_string b ",\n  \"resources\": ";
      Buffer.add_string b json
  | _ -> ());
  Buffer.add_string b "\n}\n";
  Buffer.contents b
