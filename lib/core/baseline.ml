module Csdfg = Dataflow.Csdfg
module G = Digraph.Graph

let repair sched comm =
  let dfg = Schedule.dfg sched in
  if not (Schedule.assigned_all sched) then
    invalid_arg "Baseline.repair: schedule has unassigned nodes";
  (* Original start order is a topological order of both the zero-delay
     DAG and the per-processor chains, so one sweep suffices. *)
  let order =
    List.sort
      (fun a b ->
        match compare (Schedule.cb sched a) (Schedule.cb sched b) with
        | 0 -> compare a b
        | c -> c)
      (Csdfg.nodes dfg)
  in
  let repaired =
    ref
      (Schedule.empty ~speeds:(Schedule.speeds sched)
         ~retiming:(Schedule.retiming sched) dfg comm)
  in
  let last_on_pe = Hashtbl.create 8 in
  List.iter
    (fun v ->
      let pe = Schedule.pe sched v in
      let data_bound =
        List.fold_left
          (fun acc (e : Csdfg.attr G.edge) ->
            if Schedule.delay sched e <> 0 then acc
            else begin
              let u = e.G.src in
              let m =
                Comm.cost comm ~src:(Schedule.pe !repaired u) ~dst:pe
                  ~volume:(Csdfg.volume e)
              in
              max acc (Schedule.ce !repaired u + m + 1)
            end)
          1 (Csdfg.pred dfg v)
      in
      let resource_bound =
        match Hashtbl.find_opt last_on_pe pe with
        | None -> 1
        | Some u -> Schedule.ce !repaired u + 1
      in
      repaired :=
        Schedule.assign !repaired ~node:v ~cb:(max data_bound resource_bound) ~pe;
      Hashtbl.replace last_on_pe pe v)
    order;
  Schedule.set_length !repaired (Timing.required_length !repaired)

let list_oblivious dfg topo =
  let zero = Comm.zero ~n:(Topology.n_processors topo) ~name:"zero-comm" in
  let oblivious = Startup.run dfg zero in
  repair oblivious (Comm.of_topology topo)

let rotation_oblivious ?mode ?passes dfg topo =
  let zero = Comm.zero ~n:(Topology.n_processors topo) ~name:"zero-comm" in
  let result = Compaction.run ?mode ?passes dfg zero in
  repair result.Compaction.best (Comm.of_topology topo)
