(** Lightweight runtime metrics for the probabilistic kernels.

    The paper's guarantees are statistical, so a running system must be
    able to see acceptance rates, trial budgets and walk lengths to know
    whether its (γ,ε,δ) contracts are being honoured.  Every metric is
    one process-wide cell that any domain may write to, created once at
    module initialization.  Recording is designed for hot paths:

    - {b disabled by default}: every record operation is one mutable
      load and a conditional branch, no allocation, no syscall;
    - {b allocation-free when enabled}: a counter bump is one atomic
      add, a histogram observation updates its preallocated cell under
      the histogram's mutex;
    - {b deterministic dumps}: {!dump} renders every metric as JSON,
      sorted by name.

    Metric names are dot-separated paths ([hit_and_run.steps],
    [union.volume.trials]).  Creating a metric with a name that already
    exists returns the existing instance, so a functor body or a
    re-executed module initializer never double-registers. *)

module Clock : sig
  val now : unit -> float
  (** Monotonic seconds ([CLOCK_MONOTONIC]): the origin is arbitrary,
      but differences are real elapsed time, immune to wall-clock steps
      and NTP skew.  Never allocates. *)
end

val enabled : unit -> bool
(** Global switch; initially [false] unless the [SPATIALDB_STATS]
    environment variable is set to a non-empty, non-["0"] value. *)

val set_enabled : bool -> unit

val reset : unit -> unit
(** Zero every metric cell.  Definitions are kept.  Not atomic with
    respect to concurrent writers: reset between runs. *)

module Counter : sig
  type t

  val make : string -> t
  (** Register (or look up) a monotonic counter. *)

  val incr : t -> unit
  val add : t -> int -> unit
  val value : t -> int
end

module Histogram : sig
  type t

  val make : string -> t
  (** Register (or look up) a histogram with fixed log-spaced bucket
      bounds [10^(k/2)] for [k = -18 … 18] (two buckets per decade from
      1e-9 to 1e9) plus an overflow bucket. *)

  val observe : t -> float -> unit
  val count : t -> int
  val sum : t -> float

  val quantile : t -> float -> float
  (** [quantile h q] for [q] in [[0,1]]: approximate order statistic by
      linear interpolation inside the log-spaced bucket containing the
      rank, clamped to the observed [[min, max]].

      {b Error bound.}  Bucket upper bounds grow by a factor of
      [√10 ≈ 3.162] per bucket, so the reported quantile and the true
      order statistic always fall inside one bucket of each other:
      the result is within a multiplicative factor of [√10] of the true
      quantile in the worst case (linear interpolation typically does
      much better), and {e exact} when all observations share a bucket
      (min/max clamping pins the single-bucket and extreme-rank cases).
      [count] and [sum] are exact — only the quantiles carry the bucket
      error, which is why {!dump} pairs every quantile with exact
      [count]/[sum] fields.  [0.] before the first observation. *)
end

val dump : ?only_nonzero:bool -> unit -> Scdb_json.Json.t
(** JSON snapshot of every metric (schema [spatialdb-telemetry/2]):
    [{"schema": …, "enabled": …, "counters": {name: value, …},
      "histograms": {name: {"count": …, "sum": …, "min": …, "max": …,
      "mean": …, "p50": …, "p90": …, "p99": …,
      "buckets": [[le, n], …]}, …}}].
    [count] and [sum] are exact; [p50]/[p90]/[p99] are interpolated and
    carry the [√10] log-bucket error bound documented at
    {!Histogram.quantile}.  [buckets] entries are per-bucket (not
    cumulative) counts with [le] the bucket's inclusive upper bound
    (["inf"] for the overflow bucket); zero-count buckets are omitted,
    and [only_nonzero] (default [true]) also omits never-touched
    metrics.  Non-finite values are clamped ({!Scdb_json.Json.clamp}), so every
    number is finite. *)

val counter_value : string -> int option
(** Counter lookup by name, for tests and report generators.  [Some 0]
    for a registered counter never bumped; [None] for an unknown
    name. *)
