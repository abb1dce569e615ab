(** Plain-text CSDFG format.

    {v
    # comment
    csdfg my-filter
    node A 1
    node B 2
    edge A B 0 1      # src dst delay volume
    v} *)

val to_string : Csdfg.t -> string

type error = { line : int option; message : string }
(** A parse or I/O failure.  [line] is the 1-based offending line for
    syntax errors; [None] for whole-graph problems (an edge naming an
    unknown node, a duplicate label) and for I/O failures. *)

val error_to_string : error -> string
(** ["line N: msg"] or just ["msg"]. *)

val of_string : string -> (Csdfg.t, error) result

val of_string_exn : string -> Csdfg.t
(** @raise Invalid_argument on parse errors. *)

val read_file : path:string -> (Csdfg.t, error) result
(** I/O failures (missing file, permissions) surface as an [error]
    with [line = None], never an exception. *)
