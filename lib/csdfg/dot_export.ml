let edge_label e =
  let d = Csdfg.delay e and c = Csdfg.volume e in
  let bars = String.concat "" (List.init d (fun _ -> "|")) in
  if d = 0 then Printf.sprintf "c=%d" c else Printf.sprintf "%s c=%d" bars c

let to_dot g =
  Digraph.Dot.to_dot ~name:(Csdfg.name g)
    ~node_label:(fun v -> Printf.sprintf "%s (%d)" (Csdfg.label g v) (Csdfg.time g v))
    ~edge_label (Csdfg.graph g)
