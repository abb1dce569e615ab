let enable () =
  Trace.enable ();
  Counters.enable ()

(* The final memory reading lands in the registry before it freezes, so
   the process.* / gc.* rows show up in every export of the run. *)
let disable () =
  Resource.refresh_process_gauges ();
  Trace.disable ();
  Counters.disable ()

let json_escape = Json.Writer.escape

let to_chrome_json () =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [";
  List.iteri
    (fun i (sp : Trace.span) ->
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
    (Trace.spans ());
  Buffer.add_string b "\n  ],\n  \"counters\": {";
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "\n    \"%s\": %d" (json_escape name) v))
    (Counters.dump ());
  Buffer.add_string b "\n  }";
  let histograms = Histogram.dump () in
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
  Buffer.add_string b ",\n  \"resources\": ";
  Buffer.add_string b (Resource.rollup_json ());
  Buffer.add_string b "\n}\n";
  Buffer.contents b
