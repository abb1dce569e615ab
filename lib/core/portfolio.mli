(** Parallel portfolio compaction: up to eight independent searches
    and a deterministic result rule.

    The knob space of cyclo-compaction — remap mode, candidate scoring
    and re-placement order — is embarrassingly parallel.  [run] builds
    K {e searches} ([search 0] is the {!Compaction.run} default
    configuration) and drives each as one {!Compaction.stepper} inside
    a single {!Parutil.Parallel.mapi} over [domains] OCaml domains.  A
    search runs until it converges, spends its pass budget, reaches
    {!Exhaustive.lower_bound} or passes the deadline.

    {b Why only the lower bound stops a search early.}  {!Compaction}
    replaces its best-so-far only with a {e strictly} shorter schedule,
    so a search at the lower bound can gain nothing more, while any
    other early stop can cut off a later improvement.  Unless the
    deadline stops it, each search therefore ends with the best schedule
    {!Compaction.run} reaches with the same knobs, and the default
    portfolio is never longer than {!Compaction.run}, its own
    search 0.

    {b Determinism.}  Each search's trajectory is a pure function of
    its knobs, the searches share nothing but the start-up schedule and
    the lower bound, and the final ranking orders results by best
    length, then lexicographic {!Schedule.signature}, then search
    index.  The winner is therefore byte-identical for any [domains],
    including 1, and for any completion order.

    When observability is enabled, each search records one
    [portfolio.search] span. *)

(** One diversified configuration: [index mod 4] selects the
    (mode, scoring) pair and [index / 4] the re-placement order. *)
type search = {
  index : int;
  mode : Remap.mode;
  scoring : Remap.scoring;
  order : Remap.order;
}

type member = {
  search : search;
  result : Compaction.result;
      (** best-so-far when the search stopped; after {!polish}, [best]
          is the polished schedule *)
  passes : int;  (** passes actually executed *)
}

type t = {
  winner : member;  (** first by (length, signature, index) *)
  members : member list;  (** all K searches, ranked winner-first *)
  k : int;
  domains : int;  (** domains asked for; at most [k] of them run *)
  lower_bound : int;  (** {!Exhaustive.lower_bound} of the instance *)
  timed_out : bool;
      (** the wall-clock [time_budget] expired; the ranking holds the
          best-so-far of every search at cancellation *)
}

val max_k : int
(** 8 — the four (mode, scoring) pairs crossed with both orders: every
    distinct search, and [run]'s default [k]. *)

val searches : k:int -> search list
(** The first [k] entries of the diversification schedule; exposed for
    tests and docs.
    @raise Invalid_argument if [k] is outside [1 .. max_k]. *)

val run :
  ?k:int ->
  ?domains:int ->
  ?passes:int ->
  ?time_budget:float ->
  ?speeds:int array ->
  ?validate:bool ->
  Dataflow.Csdfg.t ->
  Comm.t ->
  t
(** [k] searches (default {!max_k}) over [domains] domains (default
    {!Parutil.Parallel.recommended_domains}); [passes] is the per-search
    budget (default {!Compaction.default_passes}).  The start-up
    schedule is computed once and shared.  [time_budget] (seconds of
    wall clock) stops every search at its next pass boundary once
    exceeded — the only knob whose effect depends on timing rather than
    the trajectory, so a run that actually times out
    ([timed_out = true]) forgoes the byte-identical-winner guarantee in
    exchange for bounded latency.  [validate] (default [false])
    re-checks every intermediate schedule; the winner is always
    validated.
    @raise Invalid_argument if [k] is outside [1 .. max_k] (before any
    work) or the CSDFG is illegal. *)

val run_on :
  ?k:int ->
  ?domains:int ->
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
    [ccsched autotune] is [polish (run ~k:4 ...)] — the paper's two
    remap modes crossed with both candidate scorings, then polished.
    When observability is enabled the work records a [portfolio.polish]
    span. *)

val best : t -> Schedule.t
(** The winner's best schedule. *)

val pp : Format.formatter -> t -> unit
