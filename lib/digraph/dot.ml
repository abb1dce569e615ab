let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_dot ?(name = "g") ?node_label ?edge_label g =
  let node_label = Option.value node_label ~default:string_of_int in
  let edge_label = Option.value edge_label ~default:(fun _ -> "") in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "digraph \"%s\" {\n" (escape name));
  List.iter
    (fun v ->
      Buffer.add_string buf
        (Printf.sprintf "  n%d [label=\"%s\"];\n" v (escape (node_label v))))
    (Graph.nodes g);
  Graph.iter_edges
    (fun e ->
      let lbl = edge_label e in
      if lbl = "" then
        Buffer.add_string buf
          (Printf.sprintf "  n%d -> n%d;\n" e.Graph.src e.Graph.dst)
      else
        Buffer.add_string buf
          (Printf.sprintf "  n%d -> n%d [label=\"%s\"];\n" e.Graph.src
             e.Graph.dst (escape lbl)))
    g;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
