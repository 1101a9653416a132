(** Lightweight runtime metrics for the probabilistic kernels.

    The paper's guarantees are statistical, so a running system must be
    able to see acceptance rates, trial budgets and walk lengths to know
    whether its (γ,ε,δ) contracts are being honoured.  Metric
    {e definitions} (names) are process-global and created once at
    module initialization; the {e counts} live in a {!Registry.t}, of
    which there can be many — one per observability context — with the
    pre-context global registry surviving as {!Registry.default}.
    Recording is designed for hot paths:

    - {b disabled by default}: every record operation is one mutable
      load and a conditional branch, no allocation, no syscall;
    - {b allocation-free when enabled}: counters and histograms mutate
      preallocated cells; metrics are created once at module
      initialization, never per event;
    - {b context-transparent}: a bump lands in whichever registry the
      calling domain currently has installed ({!with_registry}), at no
      measurable cost over the old global path while at most the
      initial domain has a registry installed (the [ctx_overhead] gate
      in [bench/regress.ml] enforces ≤1.10x).  While registries are
      installed on other domains, bumps resolve through domain-local
      state so concurrent contexts never race or mis-attribute;
    - {b deterministic dumps}: {!dump} renders a registry as JSON with
      metrics sorted by name.

    Thread-safety contract: a registry is single-writer — at most one
    domain has it installed at a time (install/exit themselves are
    mutex-protected and may happen from any domain).  Cross-context
    aggregation goes through {!Registry.merge_into}, not shared cells.

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

module Registry : sig
  type t
  (** A cell store: one count/histogram cell per registered metric.
      Registries are cheap (two arrays); contexts own one each. *)

  val default : t
  (** The process-global registry every bump lands in until a context
      installs its own — the pre-context behaviour, unchanged. *)

  val create : unit -> t
  (** Fresh registry with zeroed cells for every metric registered so
      far (cells for later-registered metrics appear on first use). *)

  val merge_into : dst:t -> t -> unit
  (** [merge_into ~dst src] adds [src]'s counts into [dst] and leaves
      [src] unchanged.  Counters add.  Histograms add [count], [sum]
      and per-bucket counts and extend [min]/[max], so the merged
      histogram is {e exactly} the histogram of the concatenated
      observations — quantiles included — except that [sum] may differ
      in the last few ulps by float association.  Merging a registry
      into itself is a no-op. *)
end

val with_registry : Registry.t -> (unit -> 'a) -> 'a
(** [with_registry r f] runs [f] with [r] installed as the calling
    domain's ambient registry: every bump made by this domain (and by
    threads sharing the domain) lands in [r].  Exception-safe; nests.
    Installing from a spawned domain routes that domain's bumps through
    domain-local resolution without disturbing other domains.  Do not
    call from a worker thread that merely shares a domain with other
    ambient-registry users — threads share their domain's ambient
    state.  Readers that must not disturb ambient state (status
    tickers) use the explicit [?reg] accessors instead. *)

val reset : ?reg:Registry.t -> unit -> unit
(** Zero every metric cell of the given registry (default: the ambient
    one).  Definitions are kept. *)

module Counter : sig
  type t

  val make : string -> t
  (** Register (or look up) a monotonic counter. *)

  val incr : t -> unit
  val add : t -> int -> unit

  val value : t -> int
  (** Current count in the calling domain's ambient registry. *)
end

module Histogram : sig
  type t

  val make : string -> t
  (** Register (or look up) a histogram with fixed log-spaced bucket
      bounds [10^(k/2)] for [k = -18 … 18] (two buckets per decade from
      1e-9 to 1e9) plus an overflow bucket. *)

  val observe : t -> float -> unit

  val count : t -> int
  (** Observation count in the calling domain's ambient registry (the
      other readers below read the ambient registry likewise). *)

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
      error, which is why the Prometheus export pairs every quantile
      family with exact [_count]/[_sum] samples.  [0.] before the first
      observation. *)
end

val dump : ?only_nonzero:bool -> ?reg:Registry.t -> unit -> Scdb_json.Json.t
(** JSON snapshot of a registry (schema [spatialdb-telemetry/2];
    default: the ambient registry):
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

val to_prometheus : ?only_nonzero:bool -> ?reg:Registry.t -> unit -> string
(** Render a registry (default: ambient) in the Prometheus text
    exposition format (version 0.0.4).  Metric names are prefixed
    [spatialdb_] with dots mapped to underscores.  Counters become
    [counter] families with the conventional [_total] suffix;
    histograms become [summary] families with
    [quantile="0.5"/"0.9"/"0.99"] samples plus exact [_sum] and
    [_count], and [_min]/[_max] gauge families carrying the exact
    observed extrema (0 on empty cells, as in {!dump}).  All values
    are finite (non-finite sums are clamped like {!dump}).
    [only_nonzero] as in {!dump}. *)

val counter_value : ?reg:Registry.t -> string -> int option
(** Registry lookup by name (default: ambient), for tests, report
    generators and the status view.  [Some 0] for a registered metric
    the given registry has never touched; [None] for an unknown name. *)
