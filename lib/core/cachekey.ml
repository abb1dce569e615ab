(* The scheduling request spec and its content-addressed cache key.

   The knob record, its defaults, its validator and its canonical
   rendering live here once; the CLI flags, the wire/journal JSON codec
   (Service.Protocol) and the cache key all go through them.

   The key must cover every input the scheduler's reply bytes depend
   on: the graph (structure, labels and name — the name is printed in
   the exported schedule), the machine (link structure and name — the
   communication model's name is printed too), the transport discipline
   and every knob that steers the search.  Two requests with equal
   canonical forms therefore produce byte-identical schedules, which is
   the coherence argument the service cache rests on (DESIGN.md).

   The canonical form is a plain sorted text rendering, hashed with
   [Digest] (MD5).  MD5 is not collision-resistant against adversaries,
   but the cache is a performance layer, not an integrity boundary: a
   forged collision can only make the forger's own request return a
   stale schedule. *)

module Csdfg = Dataflow.Csdfg
module G = Digraph.Graph

type transport = Comm.transport = Store_and_forward | Wormhole

type knobs = {
  mode : Remap.mode;
  passes : int option;
  speeds : int array option;
  slowdown : int;
  transport : transport;
  deadline_ms : int option;
}

let default_knobs =
  {
    mode = Remap.With_relaxation;
    passes = None;
    speeds = None;
    slowdown = 1;
    transport = Store_and_forward;
    deadline_ms = None;
  }

let modes =
  [ ("relax", Remap.With_relaxation); ("strict", Remap.Without_relaxation) ]

let transports =
  [ ("store-and-forward", Store_and_forward); ("wormhole", Wormhole) ]

let name_in table v = fst (List.find (fun (_, x) -> x = v) table)
let mode_name = name_in modes
let transport_name = name_in transports

(* Fields are checked in their wire order; the speeds count needs the
   machine, so it comes last. *)
let validate ?topo k =
  let at_least_1 field =
    Error (Printf.sprintf "%S must be an integer >= 1" field)
  in
  match k with
  | { passes = Some n; _ } when n < 1 -> at_least_1 "passes"
  | { slowdown; _ } when slowdown < 1 -> at_least_1 "slowdown"
  | { speeds = Some a; _ }
    when Array.length a = 0 || Array.exists (fun s -> s <= 0) a ->
      Error "\"speeds\" entries must be positive"
  | { deadline_ms = Some ms; _ } when ms < 1 -> at_least_1 "deadline_ms"
  | { speeds = Some a; _ } -> (
      match topo with
      | Some topo when Array.length a <> Topology.n_processors topo ->
          Error
            (Printf.sprintf "\"speeds\" needs %d entries for %s, got %d"
               (Topology.n_processors topo) (Topology.name topo)
               (Array.length a))
      | _ -> Ok ())
  | _ -> Ok ()

let slowed k g =
  if k.slowdown > 1 then Dataflow.Transform.slowdown g k.slowdown else g

let instance k g topo = (slowed k g, Comm.of_transport k.transport topo)

let add_graph buf g =
  Buffer.add_string buf (Printf.sprintf "graph %s\n" (Csdfg.name g));
  List.iter
    (fun v ->
      Buffer.add_string buf
        (Printf.sprintf "node %s %d\n" (Csdfg.label g v) (Csdfg.time g v)))
    (Csdfg.nodes g);
  let edges =
    List.map
      (fun (e : Csdfg.attr G.edge) ->
        (e.G.src, e.G.dst, Csdfg.delay e, Csdfg.volume e))
      (Csdfg.edges g)
    |> List.sort compare
  in
  List.iter
    (fun (s, d, delay, volume) ->
      Buffer.add_string buf
        (Printf.sprintf "edge %d %d %d %d\n" s d delay volume))
    edges

let add_topology buf topo =
  Buffer.add_string buf
    (Printf.sprintf "topology %s %d\n" (Topology.name topo)
       (Topology.n_processors topo));
  let links =
    List.map
      (fun (a, b, w) -> if a <= b then (a, b, w) else (b, a, w))
      (Topology.weighted_links topo)
    |> List.sort compare
  in
  List.iter
    (fun (a, b, w) ->
      Buffer.add_string buf (Printf.sprintf "link %d %d %d\n" a b w))
    links

(* Every field is named, so a new knob does not compile until the key
   decides whether it belongs in it. *)
let canonical { mode; passes; speeds; slowdown; transport; deadline_ms = _ } g
    topo =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "ccsched-cache/1\n";
  add_graph buf g;
  add_topology buf topo;
  Printf.bprintf buf "transport %s\n" (transport_name transport);
  Printf.bprintf buf "mode %s\n" (mode_name mode);
  (match passes with
  | None -> Buffer.add_string buf "passes default\n"
  | Some n -> Printf.bprintf buf "passes %d\n" n);
  (match speeds with
  | None -> Buffer.add_string buf "speeds uniform\n"
  | Some a ->
      Printf.bprintf buf "speeds %s\n"
        (String.concat "," (List.map string_of_int (Array.to_list a))));
  Printf.bprintf buf "slowdown %d\n" slowdown;
  Buffer.contents buf

let key k g topo = Digest.to_hex (Digest.string (canonical k g topo))

let digest ?speeds ?passes ?(slowdown = 1) ~mode ~transport g topo =
  key { default_knobs with mode; passes; speeds; slowdown; transport } g topo

let replan_canonical ~parent ~failed_pes ~failed_links =
  let buf = Buffer.create 128 in
  Buffer.add_string buf "ccsched-cache-replan/1\n";
  Buffer.add_string buf (Printf.sprintf "parent %s\n" parent);
  List.iter
    (fun p -> Buffer.add_string buf (Printf.sprintf "fail-pe %d\n" p))
    (List.sort_uniq compare failed_pes);
  List.iter
    (fun (a, b) ->
      Buffer.add_string buf (Printf.sprintf "fail-link %d %d\n" a b))
    (List.sort_uniq compare
       (List.map
          (fun (a, b) -> if a <= b then (a, b) else (b, a))
          failed_links));
  Buffer.contents buf

let replan_digest ~parent ~failed_pes ~failed_links =
  Digest.to_hex
    (Digest.string (replan_canonical ~parent ~failed_pes ~failed_links))
