(** Process-wide log2-bucketed value distributions.

    Where {!Counters} answers "how many", a histogram answers "how
    big": message latencies, link backlogs, instance slips — any
    non-negative integer sample whose distribution matters more than
    its total.  Samples land in power-of-two buckets: bucket 0 covers
    [v <= 0], bucket [i >= 1] covers [2^(i-1) <= v < 2^i] (upper bound
    [2^i - 1]) — so a 64-slot array captures the full [int] range with
    relative error bounded by 2x, the classic log-bucketed trade-off at
    a fraction of an exact histogram's footprint.

    Handles live in one global registry like {!Counters}; recording
    through a handle is lock-free (one atomic fetch-and-add into the
    bucket plus count/sum updates) and a single atomic flag read while
    the metrics switch is off, so instrumented hot paths cost nothing
    measurable until a caller opts in.  Histograms share that switch
    with the counters: {!Counters.enable} turns both on and zeroes
    both, {!Counters.disable} turns both off. *)

type t
(** A registered histogram handle. *)

val histogram : string -> t
(** [histogram name] registers [name] and returns its handle; calling
    it again with the same name returns the same handle.  Safe to call
    from any domain. *)

val name : t -> string

val observe : t -> int -> unit
(** Record one sample.  Negative samples clamp to bucket 0 (they count
    toward [count] but add 0 to [sum]).  No-op while the metrics
    switch is off. *)

val count : t -> int
(** Samples recorded since the last {!Counters.enable} /
    {!Counters.reset}. *)

val sum : t -> int
(** Sum of recorded samples (negatives clamped to 0). *)

val mean : t -> float
(** [sum / count]; 0 on an empty histogram. *)

val quantile : t -> float -> int
(** [quantile h q] for [q] in [0..1]: the upper bound of the first
    bucket at which the cumulative sample count reaches [q * count] —
    an overestimate by at most 2x (bucket granularity).  0 on an empty
    histogram.
    @raise Invalid_argument when [q] is outside [0..1]. *)

val buckets : t -> (int * int) list
(** Non-empty buckets as [(upper_bound, count)] pairs, ascending by
    bound.  Bucket 0's bound is 0. *)

type snapshot = {
  s_count : int;  (** total samples, derived from the bucket reads *)
  s_sum : int;
  s_buckets : (int * int) list;
      (** non-empty [(upper_bound, count)] pairs, ascending *)
}
(** An immutable view of one histogram.  [s_count] is the sum of
    [s_buckets] counts (not a separate read of the total cell), so the
    view is internally consistent under concurrent observation — a
    Prometheus rendering's +Inf bucket always equals its _count. *)

val snap : t -> snapshot

val snapshot : unit -> (string * snapshot) list
(** {!snap} of every registered histogram, sorted by name.  Histograms
    with no samples are included (all-zero snapshot), mirroring
    {!Counters.snapshot}. *)

val dump : unit -> (string * (int * int) list) list
(** Snapshot of every registered histogram's {!buckets}, sorted by
    name.  Histograms with no samples are included with an empty
    bucket list, mirroring {!Counters.dump}. *)

val pp_summary : Format.formatter -> unit -> unit
(** Human-readable registry listing: one line per histogram with
    count, sum, mean and the p50 / p90 / p99 bucket bounds. *)
