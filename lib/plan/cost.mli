(** The paper's a-priori budget formulas, in one audited place.

    Every operator of the pipeline prescribes its own trial/sample/step
    budget up front — the DFK walk length for convex relations (§2),
    the [m·ln(1/δ)] Karp–Luby retry budget for unions (Thm 4.1), the
    [d^k]-sized rejection budget for intersections (Prop 4.1), the
    multi-phase sample sizing of the volume estimator, the stopping
    rule of volume fractions, and the Chernoff/Hoeffding sample counts
    underneath them all.  The runtime
    ({!Scdb_sampling.Chernoff}, [Union], [Inter], [Diff], [Boost], the
    walk schedules) and the static cost model ({!Plan}) both call this
    module, so a query plan's predicted budget and the budget the
    executor actually spends come from literally the same formula —
    the invariant the budget-equality regression test pins down. *)

val samples_for_additive : eps:float -> delta:float -> int
(** Hoeffding: [⌈ln(2/δ)/(2ε²)⌉] draws estimate a Bernoulli mean within
    additive [ε] with confidence [1−δ].
    @raise Invalid_argument unless [eps > 0] and [delta > 0]. *)

val samples_for_ratio : eps:float -> delta:float -> p_lower:float -> int
(** Multiplicative Chernoff: [⌈3·ln(2/δ)/(ε²·p_lower)⌉] draws estimate
    a Bernoulli mean [p ≥ p_lower] within ratio [1+ε] with confidence
    [1−δ]. @raise Invalid_argument unless all arguments are positive. *)

val stopping_threshold : eps:float -> delta:float -> float
(** Dagum–Karp–Luby–Ross (SIAM J. Comput. 2000): drawing Bernoulli
    trials until [Υ₁ = 1 + (1+ε)·4(e−2)·ln(2/δ)/ε²] hit, [Υ₁/N] is
    within ratio [1±ε] of any [p > 0] with confidence [1−δ], in
    [E[N] ≤ Υ₁/p] trials.  @raise Invalid_argument unless [eps] and
    [delta] lie in (0,1). *)

val stopping_trials : eps:float -> delta:float -> p_lower:float -> int
(** [⌈Υ₁/p_lower⌉], the stopping rule's expected trials at the floor
    [p_lower]: the plan's prediction, and half the runtime's cap.
    @raise Invalid_argument as above, or unless [p_lower > 0]. *)

val fraction_trials_cap : int
(** [200_000]: clamps the intersection and difference stopping rules,
    whose cap grows as [d^k]; a clamped run weakens the contract. *)

val union_trials : m:int -> delta:float -> int
(** Karp–Luby retry budget (Theorem 4.1/Corollary 4.2): per-trial
    success probability is at least [1/m], so [max 4 ⌈m·ln(1/δ)⌉]
    trials fail with probability below [δ]. *)

val child_grant : m:int -> eps:float -> delta:float -> float * float
(** Algorithm 1's sub-contract for the [m] operands of a union (and of
    an intersection's sample path): [(ε/3, δ/(4m))], the accuracy each
    operand's volume estimate is requested at.  The runtime
    combinators and the plan builder both call this, so the
    grant a plan advertises is the grant the executor uses. *)

val rejection_budget : dim:int -> poly_degree:int -> delta:float -> int
(** Intersection/difference rejection budget (Proposition 4.1): under
    the poly-relatedness promise [μ(S)/μ(T) ≤ d^k] the acceptance rate
    is at least [d^{−k}], so [max 32 ⌈d^k·ln(1/δ)⌉] trials suffice
    ([d] is clamped below at 2 so dimension 1 is not free). *)

val poly_floor : dim:int -> poly_degree:int -> float
(** The acceptance-probability floor [1/(max 2 d)^k] of the same
    promise — the [p_lower] the volume estimators feed to
    {!samples_for_ratio}. *)

val boost_runs : delta:float -> int
(** Median-boosting repetition count: the smallest odd [n ≥ 18·ln(1/δ)]
    such that the median of [n] 3/4-confident runs fails with
    probability at most [δ].
    @raise Invalid_argument unless [delta] lies in (0,1). *)

val hit_and_run_steps : dim:int -> int
(** The practical hit-and-run schedule [max 60 ⌈12·d·ln²(d+2)⌉] used by
    the pipeline (the [O*(d³)] mixing bound is a worst case, not a
    recipe). *)

val lattice_steps : dim:int -> eps:float -> int
(** The practical DFK lattice-walk schedule
    [max 200 ⌈8·d³·ln(1/ε)⌉]. *)

val rejection_box_trials : dim:int -> int
(** Heuristic attempt budget for naive rejection from a bounding box:
    the body-to-box volume ratio collapses geometrically with
    dimension, modelled as [min 20000 (4·2^d)].  A prediction aid for
    the cost model only — the runtime budget is the sampler's
    [max_attempts] argument. *)

val lasserre_calls : dim:int -> rows:int -> float
(** [Σ_{k<d} m!/(m−k)!] for [m = rows]: an upper bound on the calls
    the exact Lasserre recursion ([Volume_exact]) makes on a
    [rows]-row system in dimension [dim].  A call in dimension [d > 1]
    recurses once per row of its preprocessed system into dimension
    [d−1], with one row fewer (the pivot), and preprocessing only
    removes rows; a 1-D call is a base case.  So
    [C(1,m) = 1], [C(d,m) ≤ 1 + m·C(d−1,m−1)], whose solution is the
    sum.  [0] in dimension 0, where no recursion runs.  A float,
    since it passes [max_int] near [d = 20].
    @raise Invalid_argument on a negative argument. *)

val walk_steps_per_lasserre_call : float
(** The fitted exchange rate between the two routes to a leaf's
    weight: the wall time of one Lasserre call over the wall time of
    one DFK hit-and-run phase step (DESIGN.md §7 gives the fit).  The
    optimizing pass takes a leaf's weight exactly when
    [lasserre_calls · walk_steps_per_lasserre_call] is at most the
    leaf's DFK volume work in walk steps. *)

(** {1 The exact leaf sampler}

    The face-lattice sampler ([Scdb_sampling.Pyramid]) is priced by
    its own counted bounds, not {!lasserre_calls}: that bound counts
    Lasserre's recursion without memoisation (about 2.6e5 calls on the
    8-simplex), while the lattice memoises each face once. *)

val exact_sampler_faces : dim:int -> rows:int -> float
(** [Σ_{j≤d} C(m,j)] for [m = rows]: an upper bound on the faces of a
    [rows]-row body in dimension [dim], the body and its vertices
    included.  A k-face F is [P ∩ {rows of S tight}] for any set S of
    [d−k] independent rows tight on F (that set is a face of dimension
    k containing F), so distinct faces have distinct sets of at most
    [d] rows.  Exact on the simplex: 511 on the 8-simplex.  Its last
    term, [C(m,d)], counts the square row systems the lattice solves
    for vertices, so the face cap bounds those too.
    @raise Invalid_argument on a negative argument. *)

val exact_sampler_face_cap : float
(** [4096]: the optimizing pass builds no lattice whose face bound is
    larger; it keeps the leaf's walk or box instead. *)

val walk_steps_per_lattice_face : float
(** The fitted build cost of one lattice face in hit-and-run steps
    (DESIGN.md §9 "Exact leaf draws" gives the fit: 2.9–4.3 µs a face
    against 0.14–0.31 µs a step for d = 2..8). *)

val walk_steps_per_exact_draw : float
(** The fitted cost of one exact draw ([d] facet choices and [d]
    radial moves) in hit-and-run steps: 0.2–0.7 µs against 0.14–0.31 µs
    a step for d = 2..8. *)

val exact_sampler_build_steps : dim:int -> rows:int -> float
(** The lattice's build price in walk steps:
    [walk_steps_per_lattice_face · exact_sampler_faces + C(m,d)] (a
    vertex solve costs about one step).  The optimizing pass takes the
    exact route when this plus [n · walk_steps_per_exact_draw]
    undercuts the leaf's [n] draws by walk and by box, [n] its budgeted
    draws. *)

val rejection_box_trials_exact : box_volume:float -> body_volume:float -> float
(** [max 1 (vol(box)/vol(body))]: the expected box trials per accepted
    draw when the body's volume is known, both measured in the same
    (the rounded) frame.  Replaces the {!rejection_box_trials} guess
    where the optimizing pass knows the leaf's volume.
    @raise Invalid_argument unless both volumes are positive. *)

(** {1 Inversions}

    The audit layer ({!Scdb_audit} via [spatialdb audit] and the report
    error-budget block) asks the converse question: given the samples a
    node {e actually} spent, what failure probability did it achieve at
    its granted [ε]? *)

val delta_at_work_ratio : delta:float -> ratio:float -> float
(** Failure probability a node achieved when it spent [ratio] times its
    granted work: every sample bound above has the exponential shape
    [δ(n) = C·exp(−K·n)] with [δ(n_granted) = delta], so
    [δ(ratio·n_granted) = 2·(delta/2)^ratio].  [nan] ratios (node never
    ran) propagate; ratios [≤ 0] degrade to 1.
    @raise Invalid_argument unless [delta] lies in (0,1). *)

val volume_phases : dim:int -> ?aspect:float -> unit -> int
(** Number of telescoping phases of the multi-phase volume estimator:
    [⌈d·log₂(R/r)⌉] for a rounded body with enclosing/inscribed radius
    ratio [R/r = aspect].  The default aspect is the a-priori rounding
    guarantee [d^{3/2}] (the runtime recomputes the exact count from
    the body it actually rounded). *)

val volume_samples_per_phase : eps:float -> delta:float -> phases:int -> int
(** Rigorous per-phase sample count of the multi-phase estimator: each
    phase ratio is ≥ 1/2, the per-phase ratio target is [ε/(2q)] and
    the per-phase failure budget [δ/q], all through
    {!samples_for_ratio}.  [0] when [phases = 0]. *)
