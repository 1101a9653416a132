(** Chernoff/Hoeffding sample-size arithmetic.

    Centralizes every "how many samples do I need" computation, so that
    the (ε,δ) guarantees quoted in the paper map to one audited place. *)

val samples_for_additive : eps:float -> delta:float -> int
(** Hoeffding: [n ≥ ln(2/δ)/(2ε²)] draws estimate a Bernoulli mean
    within additive [ε] with confidence [1−δ]. *)

val samples_for_ratio : eps:float -> delta:float -> p_lower:float -> int
(** Multiplicative Chernoff: enough draws to estimate a Bernoulli mean
    [p ≥ p_lower] within ratio [1+ε] with confidence [1−δ]:
    [n ≥ 3·ln(2/δ)/(ε²·p_lower)]. *)

val estimate_fraction : Scdb_rng.Rng.t -> samples:int -> (Scdb_rng.Rng.t -> bool) -> float
(** Empirical mean of [samples] Bernoulli draws. *)

type stopping = { trials : int; hits : int; estimate : float }

val estimate_fraction_stopping :
  Scdb_rng.Rng.t ->
  eps:float ->
  delta:float ->
  p_floor:float ->
  ?max_trials:int ->
  (Scdb_rng.Rng.t -> bool) ->
  stopping
(** The Dagum–Karp–Luby–Ross stopping rule for a Bernoulli mean [p]:
    draw until [Υ₁] ({!Scdb_plan.Cost.stopping_threshold}) trials hit
    and return [Υ₁/N] — within [1±ε] of [p] with confidence [1−δ], in
    [E[N] ≤ Υ₁/p] trials.  The floor only sizes the cap,
    [min max_trials (2·⌈Υ₁/p_floor⌉)], reached with probability at most
    [e^(−Υ₁/4)] when [p ≥ p_floor]; a capped run returns [hits/N] and
    logs [chernoff.budget_exhausted].  @raise Invalid_argument unless
    [eps] and [delta] lie in (0,1), [p_floor > 0] and [max_trials ≥ 1]. *)

val median_of_means :
  Scdb_rng.Rng.t -> blocks:int -> block_size:int -> (Scdb_rng.Rng.t -> float) -> float
(** Median of [blocks] means of [block_size] draws each — boosts a
    constant-confidence estimator to confidence [1−δ] with
    [blocks = O(ln(1/δ))]. *)
