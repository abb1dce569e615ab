(** Parallel portfolio compaction: K diversified searches, one shared
    bound, a deterministic result rule.

    The knob space of cyclo-compaction — remap mode, candidate scoring,
    re-placement order, and a target-length ladder rising from the
    {!Exhaustive.lower_bound} — is embarrassingly parallel, the
    generalisation of the classic VLIW "search the initiation interval
    upward from the lower bound" loop.  [run] builds K {e searches}
    ([search 0] is the {!Compaction.run} default configuration), drives
    each as a {!Compaction.stepper}, and interleaves them in
    barrier-synchronous rounds of 8 passes executed over [domains]
    OCaml domains.

    {b Shared-bound pruning.}  One [Atomic] holds the best length found
    by any search.  It is written only at round barriers, so within a
    round every search reads the same frozen value; a search retires
    early ({e pruning} the rest of its pass budget) once it has gone
    [patience] passes without improving its own best — 24 when it is at
    the shared bound, the tighter 12 when it is strictly worse — or as
    soon as it reaches its rung of the target
    ladder.  Because {!Compaction} only ever replaces its best-so-far
    with a {e strictly} shorter schedule, retiring a search never
    changes the best it has already published; it only forgoes possible
    future improvements, and the patience thresholds are sized (see
    DESIGN.md) so the bench suite's winners are never cut off.

    {b Determinism.}  Each search's trajectory is a pure function of
    its knobs; prune decisions depend only on search-local state and
    the frozen bound; and the final ranking orders results by best
    length, then lexicographic {!Schedule.signature}, then search
    index.  The winner is therefore byte-identical for any [domains],
    including 1, and for any completion order.

    When observability is enabled, each (search, round) slice records a
    [portfolio.search] span, pruned-away passes accumulate in the
    [portfolio.pruned_passes] counter, and the [portfolio.shared_bound]
    gauge tracks the bound. *)

(** One diversified configuration.  [index mod 4] selects the
    (mode, scoring) pair, [index / 4 mod 2] the re-placement order, and
    [index / 8] the rung of the target ladder:
    [l_target = lower_bound + index / 8].  A search stops as soon as
    its best reaches [l_target] — rung 0 is the provable optimum, so
    stopping there is always safe; higher rungs trade completeness for
    wall-clock on the extra searches. *)
type search = {
  index : int;
  mode : Remap.mode;
  scoring : Remap.scoring;
  order : Remap.order;
  l_target : int;
}

type member = {
  search : search;
  result : Compaction.result;
      (** best-so-far when the search retired; after {!polish}, [best]
          is the polished schedule *)
  passes : int;  (** passes actually executed *)
  pruned : bool;
      (** retired by the portfolio (shared bound or target ladder), not
          by its own convergence or pass budget *)
}

type t = {
  winner : member;  (** first by (length, signature, index) *)
  members : member list;  (** all K searches, ranked winner-first *)
  k : int;
  domains : int;  (** domains actually used *)
  lower_bound : int;  (** {!Exhaustive.lower_bound} of the instance *)
  rounds : int;  (** barriers executed *)
  timed_out : bool;
      (** the wall-clock [time_budget] expired; the ranking holds the
          best-so-far of every search at cancellation *)
}

val default_k : int
(** 8 — the four (mode, scoring) pairs crossed with both orders. *)

val searches : k:int -> lower_bound:int -> search list
(** The first [k] entries of the diversification schedule; exposed for
    tests and docs. *)

val run :
  ?k:int ->
  ?domains:int ->
  ?prune:bool ->
  ?passes:int ->
  ?time_budget:float ->
  ?speeds:int array ->
  ?validate:bool ->
  Dataflow.Csdfg.t ->
  Comm.t ->
  t
(** [k] searches (default {!default_k}) over [domains] domains (default
    {!Parutil.Parallel.recommended_domains}); [passes] is the per-search
    budget (default {!Compaction.default_passes}).  [prune] (default
    [true]) enables patience-based early retirement; [~prune:false]
    with [~domains:1] is the sequential baseline the bench suite
    compares against — same searches, same result rule, every search
    driven to its natural end.  The start-up schedule is computed once
    and shared.  [time_budget] (seconds of wall clock) retires every
    search at its next pass boundary once exceeded — the only knob
    whose effect depends on timing rather than the trajectory, so a run
    that actually times out ([timed_out = true]) forgoes the
    byte-identical-winner determinism guarantee in exchange for bounded
    latency.  [validate] (default [false]) re-checks every
    intermediate schedule; the winner is always validated.
    @raise Invalid_argument if [k < 1] or the CSDFG is illegal. *)

val run_on :
  ?k:int ->
  ?domains:int ->
  ?prune:bool ->
  ?passes:int ->
  ?time_budget:float ->
  ?speeds:int array ->
  ?validate:bool ->
  Dataflow.Csdfg.t ->
  Topology.t ->
  t

val polish : t -> t
(** Runs {!Refine.polish} on every member's best over [t.domains]
    domains, then re-ranks the members by the rule [run] uses and
    re-validates the winner.  A timed-out portfolio is returned
    unchanged; one that finished inside its [time_budget] is polished
    in full.
    [ccsched autotune] is [polish (run ~k:4 ~prune:false ...)] — the
    paper's two remap modes crossed with both candidate scorings, each
    driven to its natural end and then polished.  When observability is
    enabled the work records a [portfolio.polish] span. *)

val best : t -> Schedule.t
(** The winner's best schedule. *)

val pp : Format.formatter -> t -> unit
