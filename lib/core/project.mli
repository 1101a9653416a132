(** Projection of a convex relation (Theorem 4.3, Algorithm 2, Fig. 1).

    Projecting a uniform sample of [S ⊆ R^d] onto coordinates [I] is
    {e not} uniform on [π_I(S)]: a point lands in a cylinder with
    probability proportional to the cylinder's fiber volume (the
    paper's Fig. 1).  Algorithm 2 compensates by rejecting the
    projected point with probability proportional to the volume
    [h(y)] of its fiber [H_S(y)]:

    {v
    repeat k times:
      x  <- ApproxGen(S, γ, ε/3, ·)
      y  <- π_I(x)
      ĥ  <- ApproxVol(H_S(y), ε/3, ·)
      return y with probability c/ĥ      (c a low fiber-volume quantile)
    v}

    No symbolic quantifier elimination is performed; membership in the
    projection is an LP feasibility question on the fibers. *)

type fiber_volume =
  | Exact  (** Lasserre recursion on the fiber (cost exponential in d−e; fine for small fibers) *)
  | Estimated of int  (** multi-phase estimator with a per-phase sample budget *)

val of_source :
  ?fiber_volume:fiber_volume ->
  ?pilot_samples:int ->
  Rng.t ->
  Observable.t ->
  Polytope.t ->
  keep:int list ->
  Observable.t option
(** Observable for [π_keep(S)], drawing and measuring [S] through
    [source], an observable of the polytope [S].  Default fiber
    volumes: [Exact] when [d − e <= 4], else [Estimated 600].
    [pilot_samples] (default 32) sizes the pre-pass that sets the
    acceptance constant [c]: the 5% quantile of the observed fiber
    volumes, divided by 4.  The volume asks [source] for its own at ε/3, δ/3
    and scales it by the mean of 1/h over source draws.  [None] when
    no pilot draw lands on a fiber of positive volume.
    @raise Invalid_argument if [keep] is empty, out of range, or the
    full coordinate set, or if [source] and [S] differ in dimension. *)

val project :
  ?fiber_volume:fiber_volume ->
  ?pilot_samples:int ->
  Rng.t ->
  Polytope.t ->
  keep:int list ->
  Observable.t option
(** {!of_source} over the polytope's own DFK observable
    ({!Convex_obs.of_polytope} under {!Convex_obs.practical_config},
    on the same rng).  [None] when [S] is empty, lower-dimensional or
    unbounded.
    @raise Invalid_argument as {!of_source}. *)

val fiber : Polytope.t -> keep:int list -> Vec.t -> Polytope.t
(** The fiber polytope [H_S(y)] in the eliminated coordinates. *)

val fiber_volume_of : ?fiber_volume:fiber_volume -> Rng.t -> Polytope.t -> keep:int list -> Vec.t -> float

val naive_projection_sample : Rng.t -> Observable.t -> keep:int list -> Params.t -> Vec.t option
(** The {e biased} baseline of Fig. 1: sample the source and project,
    with no compensation.  Exists so E1 can measure the bias. *)
