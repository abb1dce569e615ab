module Csdfg = Dataflow.Csdfg

let to_csv sched =
  let dfg = Schedule.dfg sched in
  let buf = Buffer.create 256 in
  Printf.bprintf buf "# length=%d\n" (Schedule.length sched);
  Buffer.add_string buf "node,label,cb,ce,pe\n";
  Schedule.iter_placements
    (fun v ~cb ~pe ->
      Printf.bprintf buf "%d,%s,%d,%d,%d\n" v (Csdfg.label dfg v) cb
        (cb + Schedule.duration sched ~node:v ~pe - 1)
        (pe + 1))
    sched;
  Buffer.contents buf

let of_csv ?speeds dfg comm text =
  let lines =
    String.split_on_char '\n' text
    |> List.map String.trim
    |> List.filter (fun l -> l <> "")
  in
  let length = ref None in
  let rows = ref [] in
  let parse_line line =
    if String.length line > 0 && line.[0] = '#' then begin
      (match String.index_opt line '=' with
      | Some i -> (
          match
            int_of_string_opt
              (String.sub line (i + 1) (String.length line - i - 1))
          with
          | Some l -> length := Some l
          | None -> ())
      | None -> ());
      Ok ()
    end
    else if line = "node,label,cb,ce,pe" then Ok ()
    else
      match String.split_on_char ',' line with
      | [ _; label; cb; _; pe ] -> (
          match
            ( Dataflow.Csdfg.node_of_label dfg label,
              int_of_string_opt cb,
              int_of_string_opt pe )
          with
          | exception Not_found ->
              Error (Printf.sprintf "unknown node label %S" label)
          | node, Some cb, Some pe ->
              rows := (node, cb, pe - 1) :: !rows;
              Ok ()
          | _, None, _ | _, _, None ->
              Error (Printf.sprintf "malformed row %S" line))
      | _ -> Error (Printf.sprintf "malformed row %S" line)
  in
  let rec run = function
    | [] -> Ok ()
    | line :: rest -> (
        match parse_line line with Ok () -> run rest | Error _ as e -> e)
  in
  match run lines with
  | Error _ as e -> e
  | Ok () -> (
      match
        List.fold_left
          (fun sched (node, cb, pe) -> Schedule.assign sched ~node ~cb ~pe)
          (Schedule.empty ?speeds dfg comm)
          (List.rev !rows)
      with
      | exception Invalid_argument msg -> Error msg
      | sched -> (
          let needed = Timing.required_length sched in
          match !length with
          | Some l when l >= needed -> Ok (Schedule.set_length sched l)
          | Some l ->
              Error
                (Printf.sprintf "declared length %d below the legal minimum %d"
                   l needed)
          | None -> Ok (Schedule.set_length sched needed)))

module W = Obs.Json.Writer

let to_json sched =
  let dfg = Schedule.dfg sched in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"graph\":\"%s\",\"comm\":\"%s\",\"length\":%d,\"processors\":%d,\
        \"assignments\":["
       (W.escape (Csdfg.name dfg))
       (W.escape (Comm.name (Schedule.comm sched)))
       (Schedule.length sched)
       (Schedule.n_processors sched));
  let first = ref true in
  Schedule.iter_placements
    (fun v ~cb ~pe ->
      let time = Schedule.duration sched ~node:v ~pe in
      Buffer.add_string buf (if !first then "{" else ",{");
      first := false;
      W.add_field_str buf "node" (Csdfg.label dfg v);
      Buffer.add_char buf ',';
      W.add_field_int buf "cb" cb;
      Buffer.add_char buf ',';
      W.add_field_int buf "ce" (cb + time - 1);
      Buffer.add_char buf ',';
      W.add_field_int buf "pe" (pe + 1);
      Buffer.add_char buf ',';
      W.add_field_int buf "time" time;
      Buffer.add_char buf '}')
    sched;
  Buffer.add_string buf "]}";
  Buffer.contents buf

let gantt sched =
  let dfg = Schedule.dfg sched in
  let np = Schedule.n_processors sched in
  let len = max (Schedule.length sched) 1 in
  let cell_w =
    List.fold_left
      (fun acc v -> max acc (String.length (Csdfg.label dfg v)))
      1 (Csdfg.nodes dfg)
    + 1
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (String.make 5 ' ');
  for cs = 1 to len do
    Buffer.add_string buf (Printf.sprintf "%-*d" cell_w cs)
  done;
  Buffer.add_char buf '\n';
  for p = 0 to np - 1 do
    Buffer.add_string buf (Printf.sprintf "pe%-3d" (p + 1));
    let cs = ref 1 in
    while !cs <= len do
      (match Schedule.node_at sched ~pe:p ~cs:!cs with
      | Some v when Schedule.cb sched v = !cs ->
          let span = Schedule.duration sched ~node:v ~pe:p in
          let cell = Csdfg.label dfg v in
          let width = span * cell_w in
          let fill = if span > 1 then '=' else ' ' in
          let padded =
            if String.length cell >= width then String.sub cell 0 width
            else cell ^ String.make (width - String.length cell - 1) fill ^ " "
          in
          Buffer.add_string buf padded;
          cs := !cs + span
      | Some _ | None ->
          Buffer.add_string buf (String.make (cell_w - 1) '.' ^ " ");
          incr cs)
    done;
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

let gantt_unrolled ~iterations sched =
  if iterations < 1 then invalid_arg "Export.gantt_unrolled: iterations < 1";
  let dfg = Schedule.dfg sched in
  let np = Schedule.n_processors sched in
  let len = max (Schedule.length sched) 1 in
  let total = len * iterations in
  let cell_w =
    List.fold_left
      (fun acc v -> max acc (String.length (Csdfg.label dfg v)))
      1 (Csdfg.nodes dfg)
    + 2
  in
  let buf = Buffer.create 2048 in
  (* header: global steps, with a | at iteration boundaries *)
  Buffer.add_string buf (String.make 5 ' ');
  for cs = 1 to total do
    let mark = if (cs - 1) mod len = 0 && cs > 1 then "|" else "" in
    Buffer.add_string buf (Printf.sprintf "%s%-*d" mark (cell_w - String.length mark) cs)
  done;
  Buffer.add_char buf '\n';
  for p = 0 to np - 1 do
    Buffer.add_string buf (Printf.sprintf "pe%-3d" (p + 1));
    for cs = 1 to total do
      let local = ((cs - 1) mod len) + 1 in
      let iter = (cs - 1) / len in
      let mark = if (cs - 1) mod len = 0 && cs > 1 then "|" else "" in
      let cell =
        match Schedule.node_at sched ~pe:p ~cs:local with
        | Some v ->
            if Schedule.cb sched v = local then
              Printf.sprintf "%s%d" (Csdfg.label dfg v) iter
            else "=" ^ String.make (String.length (Csdfg.label dfg v)) '='
        | None -> "."
      in
      Buffer.add_string buf
        (Printf.sprintf "%s%-*s" mark (cell_w - String.length mark) cell)
    done;
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

let to_svg ?(cell_width = 48) ?(cell_height = 28) sched =
  let dfg = Schedule.dfg sched in
  let np = Schedule.n_processors sched in
  let len = max (Schedule.length sched) 1 in
  let margin_left = 48 and margin_top = 28 in
  let width = margin_left + (len * cell_width) + 8 in
  let height = margin_top + (np * cell_height) + 8 in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Printf.sprintf
       "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%d\" height=\"%d\" \
        font-family=\"monospace\" font-size=\"12\">\n"
       width height);
  (* grid and axis labels *)
  for cs = 1 to len do
    Buffer.add_string buf
      (Printf.sprintf
         "<text x=\"%d\" y=\"%d\" text-anchor=\"middle\">%d</text>\n"
         (margin_left + ((cs - 1) * cell_width) + (cell_width / 2))
         (margin_top - 8) cs)
  done;
  for p = 0 to np - 1 do
    Buffer.add_string buf
      (Printf.sprintf "<text x=\"4\" y=\"%d\">pe%d</text>\n"
         (margin_top + (p * cell_height) + (cell_height / 2) + 4)
         (p + 1));
    for cs = 1 to len do
      Buffer.add_string buf
        (Printf.sprintf
           "<rect x=\"%d\" y=\"%d\" width=\"%d\" height=\"%d\" fill=\"none\" \
            stroke=\"#ccc\"/>\n"
           (margin_left + ((cs - 1) * cell_width))
           (margin_top + (p * cell_height))
           cell_width cell_height)
    done
  done;
  (* task boxes *)
  Schedule.iter_placements
    (fun v ~cb ~pe ->
      let span = Schedule.duration sched ~node:v ~pe in
      Printf.bprintf buf
        "<rect x=\"%d\" y=\"%d\" width=\"%d\" height=\"%d\" \
         fill=\"#9ecae8\" stroke=\"#333\"/>\n"
        (margin_left + ((cb - 1) * cell_width))
        (margin_top + (pe * cell_height))
        (span * cell_width) cell_height;
      Printf.bprintf buf
        "<text x=\"%d\" y=\"%d\" text-anchor=\"middle\">%s</text>\n"
        (margin_left + ((cb - 1) * cell_width) + (span * cell_width / 2))
        (margin_top + (pe * cell_height) + (cell_height / 2) + 4)
        (Csdfg.label dfg v))
    sched;
  Buffer.add_string buf "</svg>\n";
  Buffer.contents buf

let write_file ~path payload =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc payload)
