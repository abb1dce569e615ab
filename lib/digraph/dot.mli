(** Graphviz (DOT) export. *)

val to_dot :
  ?name:string ->
  ?node_label:(int -> string) ->
  ?edge_label:('e Graph.edge -> string) ->
  'e Graph.t ->
  string
(** Render a graph in DOT syntax.  Default node labels are the node ids;
    default edge labels are empty. *)
