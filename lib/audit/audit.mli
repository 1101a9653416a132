(** The (ε,δ) accuracy-contract auditor.

    Every estimate the pipeline emits promises the paper's contract
    [Pr(|est − truth| ≤ ε·truth) ≥ 1 − δ].  The perf side of the
    observability stack (profiler, BENCH trend ledger, live status) can
    prove how {e fast} a run was; this module proves whether the
    contract actually {e held}: it obtains ground truth from an exact
    oracle (Lasserre volumes with inclusion–exclusion over the DNF
    tuples) or a high-budget reference run, replays the estimator [N]
    times on split seeds — optionally fanned across domains with one
    {!Scdb_obs.Obs.Ctx} per job — and brackets the empirical
    contract-hit fraction with an exact Clopper–Pearson interval, so
    "coverage ≥ 1−δ" is itself a statistically sound verdict rather
    than a point estimate.  Alongside coverage it reports per-plan-node
    error-budget attribution: the (ε,δ) grants of
    {!Scdb_plan.Plan.error_budget} joined with the runtime actuals of
    {!Scdb_gis.Plan_exec.attribution} through the {!Scdb_plan.Cost}
    inversions, i.e. consumed-vs-granted slack next to
    predicted-vs-actual cost.

    Results serialize to the versioned [spatialdb-audit/1] JSON
    document; [AUDIT_1.json] in the repo root is the committed accuracy
    ledger (the analogue of the BENCH_* perf baselines), gated in CI by
    [bench/validate_audit.exe]. *)

(** Where ground truth came from. *)
type oracle = Exact | Reference

val oracle_name : oracle -> string
(** ["exact"] / ["reference"]. *)

(** Three-valued audit outcome: [Pass] when the Clopper–Pearson lower
    bound already certifies coverage ≥ 1−δ, [Fail] when even the upper
    bound rules it out, [Inconclusive] when the interval straddles the
    target (too few replicates to decide at this confidence). *)
type verdict = Pass | Fail | Inconclusive

val verdict_name : verdict -> string
(** ["pass"] / ["fail"] / ["inconclusive"]. *)

val clopper_pearson : ?confidence:float -> hits:int -> runs:int -> unit -> float * float
(** Exact (Clopper–Pearson) two-sided binomial confidence interval for
    the success probability after observing [hits] successes in [runs]
    trials, at [confidence] (default 0.95).  Computed by bisection on
    the exact binomial tails in log space — no normal approximation, so
    it is valid at the small replicate counts CI can afford.
    @raise Invalid_argument unless [0 <= hits <= runs], [runs >= 1] and
    [confidence] lies in (0,1). *)

(** {1 Oracles} *)

val exact_truth : ?max_tuples:int -> Relation.t -> Rational.t option
(** Exact ground truth via {!Scdb_polytope.Volume_exact}: Lasserre's
    recursion per tuple, inclusion–exclusion across tuples.  [None]
    when the relation is unbounded or has more than [max_tuples]
    (default 16) tuples — the [2^t] closed-form blowup guard. *)

val reference_truth :
  ?gamma:float -> eps:float -> delta:float -> seed:int -> Relation.t -> float option
(** Fallback pseudo-oracle for shapes with no closed form: one
    high-budget run of the estimator under audit at (ε/10, δ/10) with
    an 8× per-phase sample budget.  [None] when the relation is empty,
    unbounded or lower-dimensional.  Coverage measured against a
    reference truth folds the oracle's own (small) error into the
    verdict — prefer the exact oracle whenever it applies. *)

(** {1 Coverage verification} *)

type mode = Domains | Seq
(** How replicate jobs execute: one domain per job (concurrent) or
    sequentially in the same contexts.  Replicate [i] always runs on
    seed [seed + i], so both modes produce bit-identical estimates and
    the same verdict — the differential CI check. *)

type coverage = {
  runs : int;
  estimates : float array;  (** in replicate order; [nan] = declared failure *)
  hits : int;  (** replicates with [|est − truth| ≤ ε·truth] *)
  coverage : float;  (** [hits/runs] *)
  cp_low : float;
  cp_high : float;  (** Clopper–Pearson bracket of the true coverage *)
  confidence : float;
  target : float;  (** [1 − δ], what the contract promises *)
  verdict : verdict;
}

val verify :
  ?jobs:int ->
  ?mode:mode ->
  ?confidence:float ->
  eps:float ->
  delta:float ->
  runs:int ->
  seed:int ->
  truth:float ->
  (int -> float option) ->
  coverage
(** [verify ~eps ~delta ~runs ~seed ~truth estimate] replays
    [estimate (seed + i)] for [i = 0 … runs−1] and renders the
    coverage verdict.  With [jobs = K > 1] the replicates are dealt
    round-robin to [K] observability contexts named [audit-0 …]
    (spawned as domains under {!Domains}), each merged back into
    {!Scdb_obs.Obs.Ctx.default} afterwards, so telemetry from a fanned
    audit is exactly the telemetry of the sequential one.  Replicates
    bump the [audit.replicates]/[audit.hits]/[audit.misses] counters
    and the [audit.rel_error] histogram in whatever context they run
    in.  A [None] or non-finite estimate counts as a miss (a declared
    failure is a contract violation).
    @raise Invalid_argument on non-positive [runs]/[jobs] or parameters
    outside (0,1). *)

(** {1 Error-budget attribution} *)

type budget_row = Scdb_gis.Plan_exec.budget_row = {
  b_id : int;
  b_op : string;
  b_eps : float;  (** granted ε of the node's own estimation phase *)
  b_delta : float;  (** granted δ *)
  b_predicted : float;  (** predicted work (steps + trials) *)
  b_actual : float;  (** accrued work *)
  b_ratio : float;  (** actual/predicted; [nan] when the node never ran *)
  b_delta_achieved : float;
      (** δ the node actually bought with its spent work, via
          {!Scdb_plan.Cost.delta_at_work_ratio}; the granted δ for
          union, intersection and difference nodes (stopping rule);
          [nan] when it never ran *)
  b_slack : float;  (** [b_delta − b_delta_achieved]; negative = overdrawn *)
}
(** Re-export of {!Scdb_gis.Plan_exec.budget_row} — the same rows
    appear in the [audit] block of [spatialdb report] documents. *)

val budget_rows :
  Scdb_plan.Plan.t -> Scdb_gis.Plan_exec.attribution_row array -> budget_row array
(** Join the plan's (ε,δ) grants with the runtime cost attribution, in
    node-id order.  Guards carry [nan] budgets throughout. *)

val budget_rows_text : budget_row array -> string
(** Fixed-width table for terminals. *)

(** {1 Whole-relation audits} *)

type t = {
  fingerprint : string;  (** {!Relation.fingerprint} of the audited relation *)
  oracle : oracle;  (** the oracle that actually supplied [truth] *)
  truth : float;
  truth_exact : Rational.t option;  (** exact value when [oracle = Exact] *)
  eps : float;
  delta : float;
  gamma : float;
  cov : coverage;
  budget : budget_row array;  (** from one armed planned run on [seed] *)
}

val run :
  ?gamma:float ->
  ?jobs:int ->
  ?mode:mode ->
  ?confidence:float ->
  ?oracle:[ `Exact | `Reference | `Auto ] ->
  ?max_tuples:int ->
  ?walk_steps:int ->
  ?phase_samples:int ->
  eps:float ->
  delta:float ->
  runs:int ->
  seed:int ->
  Relation.t ->
  (t, string) result
(** Audit the practical volume-estimation pipeline on [relation]:
    resolve ground truth ([`Exact] is strict and errors when no closed
    form applies; [`Auto], the default, falls back to the reference
    oracle; an exact volume beyond the float range is an [Error]),
    verify coverage over [runs] replicates seeded
    [seed, seed+1, …] (the [--jobs] convention), and collect the
    error-budget attribution from one armed run on [seed].  The
    reference oracle, when used, runs on seed [seed + runs] so it
    shares no replicate stream.  [gamma] defaults to the CLI's fixed
    grid parameter ({!Scdb_gis.Flight.gamma}).  [walk_steps] and
    [phase_samples] are fault injection: they override the estimator's
    mixing schedule / per-phase volume sample budget (the oracle is
    untouched), so a deliberately starved estimator is how the
    Figure 1 regression demo shows the auditor catching a broken
    sampler. *)

val to_json :
  vars:string list -> formula:string -> seed:int -> jobs:int -> requested:string -> t -> string
(** The [spatialdb-audit/1] document.  Deterministic — no wall-clock
    fields — so audits of the same configuration are byte-identical
    and the committed ledger diffs cleanly.  [requested] records the
    oracle asked for (["exact"], ["reference"] or ["auto"]); the
    top-level [oracle] field records the one actually used. *)

val to_text : t -> string
(** Human summary: truth, coverage with its bracket, verdict, and the
    per-node error-budget table. *)
