module Csdfg = Dataflow.Csdfg

type instruction = { node : int; iteration : int }

type t = {
  retiming : Dataflow.Retiming.r;
  depth : int;
  prologue : instruction list;
  prologue_per_n : int -> instruction list;
  epilogue_per_n : int -> instruction list;
  kernel : Schedule.t;
}

let instructions_ordered instrs =
  List.sort
    (fun a b ->
      match compare a.iteration b.iteration with
      | 0 -> compare a.node b.node
      | c -> c)
    instrs

(* Each weakly connected component shifted to minimum 0: no edge joins
   two components, so the shift changes no retimed delay, and the
   component's least-retimed node starts the pipeline. *)
let by_component dfg r =
  let n = Array.length r in
  let comp = Array.make n (-1) in
  let rec mark c v =
    if comp.(v) < 0 then begin
      comp.(v) <- c;
      List.iter (fun e -> mark c e.Digraph.Graph.dst) (Csdfg.succ dfg v);
      List.iter (fun e -> mark c e.Digraph.Graph.src) (Csdfg.pred dfg v)
    end
  in
  for v = 0 to n - 1 do
    mark v v
  done;
  let low = Array.make n max_int in
  Array.iteri (fun v c -> low.(c) <- min low.(c) r.(v)) comp;
  Array.mapi (fun v x -> x - low.(comp.(v))) r

let build kernel =
  let original = Schedule.dfg kernel in
  let r = by_component original (Schedule.retiming kernel) in
  let depth = Array.fold_left max 0 r in
  (* Node v's kernel instance i computes original iteration i + r v,
     so original iterations 0 .. r v - 1 of v belong to the
     prologue. *)
  let prologue =
    List.concat_map
      (fun v -> List.init r.(v) (fun iteration -> { node = v; iteration }))
      (Csdfg.nodes original)
    |> instructions_ordered
  in
  (* When the loop runs fewer iterations than the pipeline is deep,
     the steady-state prologue would execute iterations [>= n] that
     the loop never requested — clamp each node to iteration [< n]. *)
  let prologue_per_n n =
    if n >= depth then prologue
    else
      List.concat_map
        (fun v ->
          List.init (min r.(v) (max 0 n))
            (fun iteration -> { node = v; iteration }))
        (Csdfg.nodes original)
      |> instructions_ordered
  in
  let epilogue_per_n n =
    if n < depth then
      (* Degenerate: fewer iterations than the pipeline depth; the
         whole loop is prologue + epilogue. *)
      List.concat_map
        (fun v ->
          List.init
            (max 0 (n - r.(v)))
            (fun k -> { node = v; iteration = r.(v) + k }))
        (Csdfg.nodes original)
      |> instructions_ordered
    else
      List.concat_map
        (fun v ->
          List.init
            (depth - r.(v))
            (fun k -> { node = v; iteration = n - depth + r.(v) + k }))
        (Csdfg.nodes original)
      |> instructions_ordered
  in
  { retiming = r; depth; prologue; prologue_per_n; epilogue_per_n; kernel }

let prologue_length t = List.length t.prologue
let prologue_length_for t ~n = List.length (t.prologue_per_n n)
let epilogue_length t ~n = List.length (t.epilogue_per_n n)

let work_of t instrs =
  let dfg = Schedule.dfg t.kernel in
  List.fold_left (fun acc i -> acc + Csdfg.time dfg i.node) 0 instrs

let overhead_ratio t ~n =
  let dfg = Schedule.dfg t.kernel in
  let total = n * Csdfg.total_time dfg in
  if total = 0 then 0.
  else
    float_of_int (work_of t (t.prologue_per_n n) + work_of t (t.epilogue_per_n n))
    /. float_of_int total

let total_time t ~n =
  let kernel_reps = max 0 (n - t.depth) in
  work_of t (t.prologue_per_n n)
  + (kernel_reps * Schedule.length t.kernel)
  + work_of t (t.epilogue_per_n n)

let pp dfg ppf t =
  Fmt.pf ppf "@[<v>pipeline depth %d, prologue %d instruction(s)@," t.depth
    (prologue_length t);
  List.iter
    (fun i ->
      Fmt.pf ppf "  prologue: %s of iteration %d@," (Csdfg.label dfg i.node)
        i.iteration)
    t.prologue;
  Fmt.pf ppf "@]"
