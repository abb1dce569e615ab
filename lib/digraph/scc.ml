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
      Stack.push (v, ref (Graph.succ_nodes g v)) work
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
  let has_self_loop v = Graph.mem_edge g ~src:v ~dst:v in
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
