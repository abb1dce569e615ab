(* Reference algorithms the library no longer runs, kept as independent
   oracles for the tests: Tarjan's strongly connected components and
   Johnson's enumeration of elementary cycles.  Csdfg.validate names a
   zero-delay cycle in one linear pass (Digraph.Topo.find_cycle), and
   the iteration bound is a parametric search (Digraph.Karp); the tests
   check both against these enumerations. *)

module Graph = Digraph.Graph

(* Graph reads the oracles need and the library does not export. *)
let succ_nodes g v =
  List.sort_uniq compare (List.map (fun e -> e.Graph.dst) (Graph.succ g v))

let find_edges g ~src ~dst =
  List.filter (fun e -> e.Graph.dst = dst) (Graph.succ g src)

let mem_edge g ~src ~dst = find_edges g ~src ~dst <> []
let self_loops g =
  List.filter (fun e -> e.Graph.src = e.Graph.dst) (Graph.edges g)

module Scc : sig
  (** Strongly connected components (Tarjan's algorithm). *)

  val components : 'e Graph.t -> int list list
  (** The strongly connected components, each sorted ascending, in reverse
      topological order of the condensation (a component is emitted only
      after every component it reaches). *)

  val component_of : 'e Graph.t -> int array
  (** Map from node to component index, indices matching {!components}. *)

  val is_strongly_connected : 'e Graph.t -> bool
  (** True when the graph has one component covering all nodes
      (false for the empty graph). *)

  val nontrivial : 'e Graph.t -> int list list
  (** Components that contain a cycle: more than one node, or a single node
      with a self-loop. *)

  val condensation : 'e Graph.t -> unit Graph.t
  (** The DAG of components: node [i] is component [i] of {!components};
      one edge per pair of components linked by at least one edge. *)
end = struct
  (* Tarjan's strongly-connected-components algorithm, iterative to keep the
     stack depth independent of the graph size. *)

  type state = {
    mutable next_index : int;
    index : int array;
    lowlink : int array;
    on_stack : bool array;
    stack : int Stack.t;
    mutable comps : int list list;
  }

  let components g =
    let n = Graph.n_nodes g in
    let st =
      {
        next_index = 0;
        index = Array.make n (-1);
        lowlink = Array.make n 0;
        on_stack = Array.make n false;
        stack = Stack.create ();
        comps = [];
      }
    in
    let visit root =
      (* Explicit DFS stack holding (node, remaining successor list). *)
      let work = Stack.create () in
      let open_node v =
        st.index.(v) <- st.next_index;
        st.lowlink.(v) <- st.next_index;
        st.next_index <- st.next_index + 1;
        Stack.push v st.stack;
        st.on_stack.(v) <- true;
        Stack.push (v, ref (succ_nodes g v)) work
      in
      open_node root;
      while not (Stack.is_empty work) do
        let v, rest = Stack.top work in
        match !rest with
        | w :: tl ->
            rest := tl;
            if st.index.(w) < 0 then open_node w
            else if st.on_stack.(w) then
              st.lowlink.(v) <- min st.lowlink.(v) st.index.(w)
        | [] ->
            ignore (Stack.pop work);
            if not (Stack.is_empty work) then begin
              let parent, _ = Stack.top work in
              st.lowlink.(parent) <- min st.lowlink.(parent) st.lowlink.(v)
            end;
            if st.lowlink.(v) = st.index.(v) then begin
              let comp = ref [] in
              let stop = ref false in
              while not !stop do
                let w = Stack.pop st.stack in
                st.on_stack.(w) <- false;
                comp := w :: !comp;
                if w = v then stop := true
              done;
              st.comps <- List.sort compare !comp :: st.comps
            end
      done
    in
    List.iter (fun v -> if st.index.(v) < 0 then visit v) (Graph.nodes g);
    List.rev st.comps

  let component_of g =
    let comps = components g in
    let owner = Array.make (Graph.n_nodes g) (-1) in
    List.iteri (fun i comp -> List.iter (fun v -> owner.(v) <- i) comp) comps;
    owner

  let is_strongly_connected g =
    Graph.n_nodes g > 0 && List.length (components g) = 1

  let nontrivial g =
    let has_self_loop v = mem_edge g ~src:v ~dst:v in
    components g
    |> List.filter (function
         | [] -> false
         | [ v ] -> has_self_loop v
         | _ :: _ :: _ -> true)

  let condensation g =
    let owner = component_of g in
    let k = List.length (components g) in
    let seen = Hashtbl.create 16 in
    let edges = ref [] in
    let add e =
      let a = owner.(e.Graph.src) and b = owner.(e.Graph.dst) in
      if a <> b && not (Hashtbl.mem seen (a, b)) then begin
        Hashtbl.add seen (a, b) ();
        edges := { Graph.src = a; dst = b; label = () } :: !edges
      end
    in
    Graph.iter_edges add g;
    Graph.create ~n:k (List.rev !edges)
end

module Cycles : sig
  (** Elementary cycle enumeration (Johnson's algorithm).

      Intended for small graphs; the number of elementary cycles can be
      exponential, so [max_cycles] bounds the enumeration. *)

  val elementary : ?max_cycles:int -> 'e Graph.t -> int list list
  (** Every elementary (simple) cycle as its node list, starting from the
      smallest node id of the cycle; deterministic order.  Self-loops are
      returned as singleton lists.  Stops after [max_cycles]
      (default 100_000). *)

  val has_cycle : 'e Graph.t -> bool

  val cycle_edges : 'e Graph.t -> int list -> 'e Graph.edge list
  (** [cycle_edges g cyc] picks, for each consecutive pair of the cycle
      (wrapping around), the first edge linking them.
      @raise Invalid_argument when some hop has no edge. *)

  val fold_cycle_weight :
    'e Graph.t -> int list -> f:('a -> 'e Graph.edge -> 'a) -> init:'a -> 'a
  (** Fold [f] over the edges of a cycle (as in {!cycle_edges}). *)

  val all_cycle_edges :
    ?max_variants:int -> 'e Graph.t -> int list -> 'e Graph.edge list list
  (** Every way of realising a node cycle as edges, one choice per hop —
      multigraphs can have several parallel edges between consecutive
      cycle nodes, and each combination is a distinct elementary circuit.
      Truncated at [max_variants] (default 4096) combinations.
      @raise Invalid_argument when some hop has no edge. *)
end = struct
  (* Johnson's algorithm for elementary circuits, restricted at each round to
     the strongly connected component of the current start node. *)

  module Iset = Set.Make (Int)

  exception Enough

  let elementary ?(max_cycles = 100_000) g =
    let n = Graph.n_nodes g in
    let results = ref [] in
    let count = ref 0 in
    let emit cyc =
      results := cyc :: !results;
      incr count;
      if !count >= max_cycles then raise Enough
    in
    let blocked = Array.make n false in
    let block_map = Array.make n Iset.empty in
    let rec unblock v =
      if blocked.(v) then begin
        blocked.(v) <- false;
        let waiters = block_map.(v) in
        block_map.(v) <- Iset.empty;
        Iset.iter unblock waiters
      end
    in
    let run start allowed =
      (* Successors restricted to [allowed] (the current SCC, ids >= start). *)
      (* Self-loops are emitted separately, so exclude them here. *)
      let succs v =
        List.filter (fun w -> w <> v && Iset.mem w allowed) (succ_nodes g v)
      in
      let path = ref [] in
      let rec circuit v =
        let found = ref false in
        blocked.(v) <- true;
        path := v :: !path;
        let explore w =
          if w = start then begin
            emit (List.rev !path);
            found := true
          end
          else if not blocked.(w) then if circuit w then found := true
        in
        List.iter explore (succs v);
        if !found then unblock v
        else
          List.iter
            (fun w -> block_map.(w) <- Iset.add v block_map.(w))
            (succs v);
        path := List.tl !path;
        !found
      in
      ignore (circuit start)
    in
    begin
      try
        (* Self-loops first (Johnson's SCC restriction skips trivial ones). *)
        List.iter
          (fun e -> if e.Graph.src = e.Graph.dst then emit [ e.Graph.src ])
          (Graph.edges g);
        for start = 0 to n - 1 do
          (* Component of [start] within the subgraph of nodes >= start. *)
          let sub =
            Graph.filter_edges
              (fun e -> e.Graph.src >= start && e.Graph.dst >= start)
              g
          in
          let comps = Scc.components sub in
          let comp =
            List.find_opt (fun c -> List.mem start c) comps |> Option.value ~default:[]
          in
          if List.length comp > 1 then begin
            let allowed = Iset.of_list comp in
            Iset.iter
              (fun v ->
                blocked.(v) <- false;
                block_map.(v) <- Iset.empty)
              allowed;
            run start allowed
          end
        done
      with Enough -> ()
    end;
    List.rev !results

  let has_cycle g =
    self_loops g <> [] || Scc.nontrivial g <> []

  let cycle_edges g cyc =
    match cyc with
    | [] -> invalid_arg "Oracle.Cycles.cycle_edges: empty cycle"
    | first :: _ ->
        let rec hops = function
          | [] -> []
          | [ last ] -> [ (last, first) ]
          | a :: (b :: _ as rest) -> (a, b) :: hops rest
        in
        let pick (a, b) =
          match find_edges g ~src:a ~dst:b with
          | e :: _ -> e
          | [] ->
              invalid_arg
                (Printf.sprintf "Oracle.Cycles.cycle_edges: no edge %d -> %d" a b)
        in
        List.map pick (hops cyc)

  let fold_cycle_weight g cyc ~f ~init =
    List.fold_left f init (cycle_edges g cyc)

  let cycle_hops cyc =
    match cyc with
    | [] -> invalid_arg "Oracle.Cycles.all_cycle_edges: empty cycle"
    | first :: _ ->
        let rec hops = function
          | [] -> []
          | [ last ] -> [ (last, first) ]
          | a :: (b :: _ as rest) -> (a, b) :: hops rest
        in
        hops cyc

  let all_cycle_edges ?(max_variants = 4096) g cyc =
    let per_hop =
      List.map
        (fun (a, b) ->
          match find_edges g ~src:a ~dst:b with
          | [] ->
              invalid_arg
                (Printf.sprintf "Oracle.Cycles.all_cycle_edges: no edge %d -> %d"
                   a b)
          | es -> es)
        (cycle_hops cyc)
    in
    (* Cartesian product of the per-hop choices, truncated. *)
    let extend variants choices =
      let out = ref [] in
      let count = ref 0 in
      (try
         List.iter
           (fun variant ->
             List.iter
               (fun e ->
                 if !count >= max_variants then raise Exit;
                 incr count;
                 out := (e :: variant) :: !out)
               choices)
           variants
       with Exit -> ());
      !out
    in
    List.fold_left extend [ [] ] per_hop |> List.map List.rev
end
