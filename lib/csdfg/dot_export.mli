(** Graphviz rendering of CSDFGs: node labels show computation times,
    edge labels show delay bars and data volumes (paper Figure 1 style). *)

val to_dot : Csdfg.t -> string
