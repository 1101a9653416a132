(** The (ε,δ) accuracy-contract auditor.

    Every estimate the pipeline emits promises the paper's contract
    [Pr(|est − truth| ≤ ε·truth) ≥ 1 − δ].  The perf side of the
    observability stack (per-node ledger, BENCH trend ledger) can
    prove how {e fast} a run was; this module proves whether the
    contract actually {e held}: it obtains ground truth from an exact
    oracle (Lasserre volumes with inclusion–exclusion over the DNF
    tuples) or a high-budget reference run, replays the estimator [N]
    times on split seeds — optionally fanned across domains — and
    brackets the empirical
    contract-hit fraction with an exact Clopper–Pearson interval, so
    "coverage ≥ 1−δ" is itself a statistically sound verdict rather
    than a point estimate.  Alongside coverage it reports the per-node
    ledger of one planned run ({!Scdb_gis.Plan_exec.ledger}): the (ε,δ)
    grants of {!Scdb_plan.Plan.error_budget} against the δ the spent
    work bought, i.e. consumed-vs-granted slack next to
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
(** {!Scdb_diag.Diag.clopper_pearson}, the interval behind every
    verdict. *)

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

val max_jobs : int
(** The most [jobs] {!verify} accepts: 127, the OCaml runtime's
    128-domain cap less the main domain. *)

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
    round-robin to [min K runs] spawned domains, joined before the
    verdict.  Replicate [i] always runs on seed [seed + i], so the
    estimates and the verdict do not depend on [jobs]; [estimate] must
    therefore be safe to call from several domains at once.
    Replicates bump the [audit.replicates]/[audit.hits]/[audit.misses]
    counters and the [audit.rel_error] histogram, process-wide stores
    every domain writes to, so their counts do not depend on [jobs]
    either.  A [None] or non-finite estimate counts as a miss (a
    declared failure is a contract violation).
    @raise Invalid_argument on non-positive [runs], [jobs] outside
    [[1, max_jobs]] or parameters outside (0,1). *)

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
  ledger : Scdb_gis.Plan_exec.row array;  (** from one armed planned run on [seed] *)
}

val run :
  ?gamma:float ->
  ?jobs:int ->
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
    per-node ledger from one armed run on [seed].  The
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
    per-node ledger table. *)
