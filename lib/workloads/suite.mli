(** Registry of every named workload, for the CLI and the benches. *)

val all : unit -> (string * Dataflow.Csdfg.t) list
(** Name/graph pairs, names unique. *)

val find : string -> Dataflow.Csdfg.t option
(** Builds the one graph named, not the others. *)

val names : unit -> string list
