let to_string g =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "csdfg %s\n" (Csdfg.name g));
  List.iter
    (fun v ->
      Buffer.add_string buf
        (Printf.sprintf "node %s %d\n" (Csdfg.label g v) (Csdfg.time g v)))
    (Csdfg.nodes g);
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "edge %s %s %d %d\n"
           (Csdfg.label g e.Digraph.Graph.src)
           (Csdfg.label g e.Digraph.Graph.dst)
           (Csdfg.delay e) (Csdfg.volume e)))
    (Csdfg.edges g);
  Buffer.contents buf

type accum = {
  mutable name : string;
  mutable nodes : (string * int) list;  (* reversed *)
  mutable edges : (string * string * int * int) list;  (* reversed *)
}

type error = { line : int option; message : string }

let error_to_string e =
  match e.line with
  | Some l -> Printf.sprintf "line %d: %s" l e.message
  | None -> e.message

let of_string text =
  let acc = { name = "unnamed"; nodes = []; edges = [] } in
  let error lineno msg = Error { line = Some lineno; message = msg } in
  let strip_comment line =
    match String.index_opt line '#' with
    | None -> line
    | Some i -> String.sub line 0 i
  in
  let parse_int lineno what s k =
    match int_of_string_opt s with
    | Some v -> k v
    | None -> error lineno (Printf.sprintf "invalid %s %S" what s)
  in
  let parse_line lineno line =
    let words =
      strip_comment line |> String.split_on_char ' '
      |> List.concat_map (String.split_on_char '\t')
      |> List.filter (fun w -> w <> "")
    in
    match words with
    | [] -> Ok ()
    | [ "csdfg"; name ] ->
        acc.name <- name;
        Ok ()
    | [ "node"; label; time ] ->
        parse_int lineno "node time" time (fun t ->
            acc.nodes <- (label, t) :: acc.nodes;
            Ok ())
    | [ "edge"; src; dst; delay; volume ] ->
        parse_int lineno "edge delay" delay (fun d ->
            parse_int lineno "edge volume" volume (fun c ->
                acc.edges <- (src, dst, d, c) :: acc.edges;
                Ok ()))
    | kw :: _ -> error lineno (Printf.sprintf "unrecognised directive %S" kw)
  in
  let lines = String.split_on_char '\n' text in
  let rec run lineno = function
    | [] -> Ok ()
    | line :: rest -> (
        match parse_line lineno line with
        | Ok () -> run (lineno + 1) rest
        | Error _ as e -> e)
  in
  match run 1 lines with
  | Error _ as e -> e
  | Ok () -> (
      try
        Ok
          (Csdfg.make ~name:acc.name ~nodes:(List.rev acc.nodes)
             ~edges:(List.rev acc.edges))
      with Invalid_argument msg -> Error { line = None; message = msg })

let of_string_exn text =
  match of_string text with
  | Ok g -> g
  | Error e -> invalid_arg ("Csdfg.Io.of_string_exn: " ^ error_to_string e)

let read_file ~path =
  match
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | text -> of_string text
  | exception Sys_error msg -> Error { line = None; message = msg }
