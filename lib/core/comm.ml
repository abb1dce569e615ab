type t = { n : int; name : string; cost_fn : int -> int -> int -> int }
(* cost_fn src dst volume; only called with src <> dst *)

let of_topology topo =
  {
    n = Topology.n_processors topo;
    name = Topology.name topo;
    cost_fn = (fun p q m -> Topology.hops topo p q * m);
  }

let wormhole topo =
  {
    n = Topology.n_processors topo;
    name = Topology.name topo ^ "-wormhole";
    cost_fn = (fun p q m -> Topology.hops topo p q + m - 1);
  }

type transport = Store_and_forward | Wormhole

let of_transport transport topo =
  match transport with
  | Store_and_forward -> of_topology topo
  | Wormhole -> wormhole topo

(* Every constructor must reject n <= 0: a processor-less comm would make
   the schedulers sweep forever and die with a misleading internal error. *)
let check_processors ctx n =
  if n <= 0 then
    invalid_arg (Printf.sprintf "Comm.%s: need at least one processor" ctx)

let zero ~n ~name =
  check_processors "zero" n;
  { n; name; cost_fn = (fun _ _ _ -> 0) }

let scaled topo ~factor =
  if factor < 0 then invalid_arg "Comm.scaled: negative factor";
  {
    n = Topology.n_processors topo;
    name = Printf.sprintf "%s-x%d" (Topology.name topo) factor;
    cost_fn = (fun p q m -> factor * Topology.hops topo p q * m);
  }

let uniform ~n ~latency ~name =
  check_processors "uniform" n;
  if latency < 0 then invalid_arg "Comm.uniform: negative latency";
  { n; name; cost_fn = (fun _ _ m -> latency * m) }

let custom ~n ~name cost_fn =
  check_processors "custom" n;
  { n; name; cost_fn }

let n_processors t = t.n
let name t = t.name

let cost t ~src ~dst ~volume =
  if src < 0 || src >= t.n || dst < 0 || dst >= t.n then
    invalid_arg "Comm.cost: processor out of range";
  if volume < 0 then invalid_arg "Comm.cost: negative volume";
  if src = dst then 0 else t.cost_fn src dst volume

let hops t ~src ~dst =
  if src < 0 || src >= t.n || dst < 0 || dst >= t.n then
    invalid_arg "Comm.hops: processor out of range";
  if src = dst then 0 else t.cost_fn src dst 1
