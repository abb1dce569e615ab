(** Graph transformations used by the experiments. *)

val slowdown : Csdfg.t -> int -> Csdfg.t
(** [slowdown g k] multiplies every edge delay by [k] — the classical
    slow-down transformation (the paper's Table 11 uses factor 3).
    @raise Invalid_argument if [k <= 0]. *)

val unfold : Csdfg.t -> int -> Csdfg.t
(** [unfold g f] is the standard unfolding: [f] copies of every node
    (labelled [name#i]); an edge [u -> v] with delay [d] becomes, for each
    [i < f], an edge [u#i -> v#((i+d) mod f)] with delay [(i+d) / f].
    Iteration bound per original iteration is preserved.
    @raise Invalid_argument if [f <= 0]. *)

val scale_volumes : Csdfg.t -> int -> Csdfg.t
(** Multiply every edge's data volume (models wider payloads).
    @raise Invalid_argument if the factor is [<= 0]. *)

val disjoint_union : Csdfg.t -> Csdfg.t -> Csdfg.t
(** Side-by-side composition; labels are prefixed with ["l:"] and ["r:"]
    when they collide. *)
