type kind = Counter | Gauge

type t = { name : string; kind : kind; cell : int Atomic.t }

let enabled_flag = Atomic.make false
let lock = Mutex.create ()
let table : (string, t) Hashtbl.t = Hashtbl.create 32
let unnamed : int Atomic.t list ref = ref []

let register kind name =
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt table name with
      | Some c -> c
      | None ->
          let c = { name; kind; cell = Atomic.make 0 } in
          Hashtbl.add table name c;
          c)

let counter name = register Counter name
let gauge name = register Gauge name

let cell () =
  let c = Atomic.make 0 in
  Mutex.protect lock (fun () -> unnamed := c :: !unnamed);
  c

let name c = c.name
let kind c = c.kind

let incr ?(by = 1) c =
  if Atomic.get enabled_flag then ignore (Atomic.fetch_and_add c.cell by)

let set c v = if Atomic.get enabled_flag then Atomic.set c.cell v
let value c = Atomic.get c.cell
let enabled () = Atomic.get enabled_flag

let reset () =
  Mutex.protect lock (fun () ->
      Hashtbl.iter (fun _ c -> Atomic.set c.cell 0) table;
      List.iter (fun c -> Atomic.set c 0) !unnamed)

let enable () =
  reset ();
  Atomic.set enabled_flag true

let disable () = Atomic.set enabled_flag false

let snapshot () =
  Mutex.protect lock (fun () ->
      Hashtbl.fold
        (fun name c acc -> (name, c.kind, Atomic.get c.cell) :: acc)
        table [])
  |> List.sort compare

let dump () = List.map (fun (name, _, v) -> (name, v)) (snapshot ())

let pp_summary ppf () =
  let rows = snapshot () in
  if rows = [] then Format.fprintf ppf "no counters registered@."
  else
    List.iter
      (fun (name, kind, v) ->
        Format.fprintf ppf "%-32s %10d%s@." name v
          (match kind with Counter -> "" | Gauge -> "  (gauge)"))
      rows
