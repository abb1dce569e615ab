(** C code generation: turn a schedule into a runnable, self-checking C
    program.

    The emitted program gives every node a deterministic integer
    semantics — its value at iteration [i] is a hash of its id and of its
    inputs' values, where an edge with delay [d] reads the producer's
    value from iteration [i - d] (a per-edge seed before iteration 0).
    It then computes [iterations] iterations twice:

    - [reference()] — the plain recurrence, nodes in dependence order;
    - [scheduled()] — instances in the static schedule's global start
      order ([iteration * L + CB], the order a real machine would issue
      them);
    - [parallel_scheduled()] — one POSIX thread per processor, each
      running its own instances in schedule order and spinning on C11
      acquire/release ready flags for its inputs: the schedule actually
      executing concurrently on real cores.

    All three must agree element-for-element; the program prints [OK]
    and exits 0, or prints the first mismatch and exits 1.  This is an
    end-to-end check that the schedule's causal order (including
    loop-carried delays and initial tokens) computes the same values as
    the data-flow semantics — compiled with [cc -pthread] and executed
    by the test suite. *)

val emit : ?iterations:int -> Cyclo.Schedule.t -> string
(** [iterations] defaults to 64.
    @raise Invalid_argument when the schedule is incomplete or
    [iterations < 1]. *)
