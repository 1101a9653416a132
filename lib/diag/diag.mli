(** The statistics module: every median, ESS, R̂ and binomial interval
    the reproduction reads is computed here, once.  Dependency-free.

    The paper prescribes walk lengths under which its (γ,ε,δ) contracts
    hold; this module measures whether a deployment's chains actually
    mix at those lengths, and brackets the coverage an audit observes.
    Building blocks:

    - {!Welford}: streaming mean/variance in O(1) memory;
    - {!median}: the order statistic behind median-of-means, median
      boosting and the perf harness;
    - {!ess}: effective sample size from lag-k autocorrelations
      (Geyer's initial positive sequence estimator);
    - {!split_rhat}: split-chain Gelman–Rubin potential scale reduction
      across m independent chains;
    - {!Monitor}: a per-chain hook the walk kernels
      ([Hit_and_run], [Walk], [Ball_walk]) feed with positions and
      accept/reject events, including a stall monitor (longest
      consecutive-rejection run);
    - {!clopper_pearson}: the exact binomial interval behind the audit
      verdicts.

    A series whose variance is at the level of rounding noise around its
    mean ([var <= 1e-20·(1 + mean²)]) is numerically constant: it has
    autocorrelation 0 and ESS 1, and chains that are all constant at
    one value have R̂ 1, whatever that value.

    Everything is deterministic given the recorded series. *)

module Welford : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float

  val variance : t -> float
  (** Unbiased sample variance ([n-1] denominator); [0.] for [n < 2]. *)

  val std : t -> float
end

val median : float array -> float
(** Median of a sorted copy: the middle element for odd length, the
    midpoint of the two middle elements for even length.  The input is
    left as it was.
    @raise Invalid_argument on an empty array. *)

val autocovariance : float array -> int -> float
(** Biased ([1/n]) autocovariance at the given lag. *)

val autocorrelation : float array -> int -> float
(** Lag-k autocorrelation in [[-1, 1]]; [0.] for a numerically
    constant series. *)

val ess : float array -> float
(** Effective sample size: [n / (1 + 2 Σ ρ_k)] with the sum truncated
    at the first non-positive consecutive-lag pair (Geyer initial
    positive sequence), clamped to [[1, n]].  [1.] for a numerically
    constant series of 4 or more values; [n] below 4. *)

val split_rhat : float array array -> float
(** Split-chain Gelman–Rubin R̂ over m ≥ 1 chains of one coordinate:
    chains of fewer than 4 draws are dropped, the rest are cut to the
    shortest of them and halved, and between-half variance is compared
    to within-half variance, so the result does not depend on chain
    order.  Values near 1 indicate agreement; ≥ 1.1 conventionally
    flags non-convergence.  Returns [1.] when no chain has 4 draws, and
    [infinity] when every half is numerically constant but the halves
    disagree. *)

module Monitor : sig
  type t

  val create : ?thin:int -> dim:int -> unit -> t
  (** Fresh monitor for one chain.  [thin] keeps every [thin]-th
      recorded position (default 1: keep all). *)

  val record : t -> float array -> unit
  (** Feed the chain position after a walk step (the kernels call this
      once per step when a monitor is attached). *)

  val record_off : t -> float array -> int -> unit
  (** [record_off t src off] records the [dim] floats at [src.(off ..)]
      as the next position — how the batched kernels feed per-chain
      monitors straight from their structure-of-arrays position block
      without copying a vector per step. *)

  val accept : t -> unit
  val reject : t -> unit

  val dim : t -> int
  val steps : t -> int
  val kept : t -> int
  val proposals : t -> int
  val accepted : t -> int
  val acceptance_rate : t -> float

  val max_stall : t -> int
  (** Longest run of consecutive rejections — a stalled walk (stuck in
      a corner, step size too large) shows up here before it shows up
      in R̂. *)

  val series : t -> int -> float array
  (** Retained positions of one coordinate, in order. *)

  val ess_per_coord : t -> float array
  val mean_per_coord : t -> float array
end

val split_rhat_monitors : Monitor.t list -> coord:int -> float
(** {!split_rhat} over the recorded series of one coordinate across
    chains. *)

type verdict = { converged : bool; reason : string }

val assess :
  ?rhat_threshold:float ->
  ?min_ess:float ->
  rhat:float array ->
  ess:float array array ->
  unit ->
  verdict
(** Combine per-coordinate R̂ and per-chain ESS into a verdict.
    Defaults: [rhat_threshold = 1.1], [min_ess = 16]. *)

val clopper_pearson : ?confidence:float -> hits:int -> runs:int -> unit -> float * float
(** Exact (Clopper–Pearson) two-sided binomial confidence interval for
    the success probability after observing [hits] successes in [runs]
    trials, at [confidence] (default 0.95).  Computed by bisection on
    the exact binomial tails in log space — no normal approximation, so
    it is valid at the small replicate counts CI can afford.
    @raise Invalid_argument unless [0 <= hits <= runs], [runs >= 1] and
    [confidence] lies in (0,1). *)
