(** The rotation phase (Definition 4.1, Lemma 4.1).

    One rotation takes the set [J] of nodes starting at row 1, retimes
    each by one (drawing a delay from every incoming edge of [J], pushing
    one onto every outgoing edge), removes them from the table, and shifts
    the remaining rows up by one.  The retiming is {!Schedule.retime}:
    [r] gains one on [J], one array copy and [|J|] writes; the graph is
    not touched.  Re-inserting each [J] node at row
    [L] on its original processor reproduces the original schedule
    rotated by one step — that placement is exposed as the {e fallback}
    the remapper can always retreat to. *)

type t = {
  rotated : int list;  (** the set J, ascending *)
  previous_length : int;  (** L of the schedule rotated from *)
  base : Schedule.t;
      (** [r] plus one on J, J unassigned, remaining rows shifted up;
          length [previous_length - 1] *)
  fallback : (int * Schedule.entry) list;
      (** per J node, the placement reproducing the rotated original *)
}

val start : Schedule.t -> (t, string) result
(** [Error] when the schedule is empty, not normalized (no node at row
    1), or — impossible for legal schedules — the rotation is illegal:
    some in-edge of [J] would carry a negative {!Schedule.delay}. *)

val apply_fallback : t -> Schedule.t
(** The rotated-but-not-remapped schedule, padded to its required length
    (equals [previous_length] unless a multi-cycle node overhangs). *)
