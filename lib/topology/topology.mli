(** Multiprocessor interconnection topologies.

    A topology is a set of processors [0 .. n-1] linked by bidirectional
    channels.  The paper's communication model is store-and-forward over
    contention-free multiple channels: transmitting a data volume [m]
    between processors [p] and [q] costs [hops p q * m] control steps,
    where [hops] is the minimum number of links on a route (Definition
    3.5).  A topology is built once: one shortest-path search from each
    processor, whose distances and trees it keeps, so {!hops} and
    {!route} are lookups.  The cost of a transfer is [Cyclo.Comm]'s. *)

type t

val of_links : name:string -> n:int -> (int * int) list -> t
(** Build a custom topology from undirected unit-latency links.
    @raise Invalid_argument if [n <= 0], an endpoint is out of range,
    a link is a self-loop, or the link graph is disconnected. *)

val of_weighted_links : name:string -> n:int -> (int * int * int) list -> t
(** Links with per-link latencies [(a, b, latency)]: distances become
    minimum total latency (Dijkstra) instead of hop counts — an
    extension for machines with non-uniform channels.  Duplicate [(a,b)]
    pairs with different latencies coexist; the cheaper one wins.
    @raise Invalid_argument as {!of_links}, or when a latency is
    non-positive. *)

(** {1 Standard architectures (paper Figure 5)} *)

val linear_array : int -> t
(** [n] processors in a line: links [i -- i+1]. *)

val ring : int -> t
(** Linear array with the two terminals joined (bidirectional channels). *)

val complete : int -> t
(** Completely connected: every pair one hop apart. *)

val mesh : rows:int -> cols:int -> t
(** 2-D mesh, processors numbered row-major. *)

val torus : rows:int -> cols:int -> t
(** 2-D mesh with wrap-around links in both dimensions. *)

val hypercube : int -> t
(** [hypercube d] is the d-cube with [2^d] processors; two processors are
    linked when their ids differ in exactly one bit.
    @raise Invalid_argument if [d < 0] or [d > 16]. *)

val star : int -> t
(** Processor 0 linked to every other ([n >= 2]). *)

val binary_tree : int -> t
(** Complete binary tree shape over [n] nodes: node [i] links to
    [2i+1] and [2i+2] when present. *)

(** {1 Accessors} *)

val name : t -> string
val n_processors : t -> int
val links : t -> (int * int) list
val weighted_links : t -> (int * int * int) list

val hops : t -> int -> int -> int
(** Minimum distance between two processors (0 when equal): the number
    of links for unit-latency topologies, the minimum total latency for
    weighted ones. *)

val route : t -> src:int -> dst:int -> int list
(** One shortest route, inclusive of both endpoints: the path to [dst] on
    [src]'s stored shortest-path tree.  Allocates only the list. *)

val diameter : t -> int

val induced : t -> int list -> t
(** [induced topo keep] restricts the machine to the given processors
    (renumbered 0.. in the order given, duplicates ignored): the
    subgraph they induce, for scheduling under a processor budget.
    @raise Invalid_argument when the list is empty, a processor is out
    of range, or the kept processors are no longer connected. *)

val relabel : t -> int array -> t
(** [relabel topo perm] renames processors so that new processor [i] is
    old processor [perm.(i)] — used to match the paper's figure
    numbering.  @raise Invalid_argument when [perm] is not a
    permutation of [0 .. n-1]. *)

val pp : Format.formatter -> t -> unit
val pp_distance_matrix : Format.formatter -> t -> unit

val max_processors : int
(** 256: the most processors {!of_spec} builds. *)

val of_spec : string -> (t, string) result
(** Parse the command-line / RPC architecture spelling: [linear:N]
    [ring:N] [complete:N] [mesh:RxC] [torus:RxC] [hypercube:D] [star:N]
    [tree:N].  [Error] carries a usage message listing the accepted
    forms; out-of-range dimensions (a 0-processor ring) are rejected
    rather than raised, and so is any machine of more than
    {!max_processors} processors ([complete:257], [hypercube:9],
    [mesh:300x1]), before anything is built. *)
