(** Multi-phase volume estimation for convex bodies (Dyer–Frieze–Kannan).

    Round the body, slice it by a geometric sequence of concentric balls
    [B(r₀) ⊆ … ⊆ B(r_q)] with bounded volume ratios, estimate each
    ratio [vol(Kᵢ₋₁)/vol(Kᵢ)] by sampling from the larger body, and
    telescope from the known inner-ball volume.  The paper's (ε,δ)
    guarantee comes from Chernoff bounds on each phase. *)

type sampler = Grid_walk | Hit_and_run
(** Which sampler drives the phases: the paper's lattice walk, or the
    continuous hit-and-run (default; same stationary law, cheaper). *)

type budget =
  | Rigorous
      (** Sample counts derived from (ε,δ) through {!Chernoff}; can be
          expensive for small ε. *)
  | Practical of int  (** Fixed number of samples per phase. *)

type report = {
  volume : float;
  phases : int;
  samples_per_phase : int;
  walk_steps : int;
  rounding_ratio : float; (* r_sup / r_inf achieved by rounding *)
}

val ball_volume : dim:int -> radius:float -> float
(** Closed-form Euclidean ball volume (recursion
    [V_d = V_{d−2}·2πr²/d]). *)

val estimate :
  Rng.t ->
  ?eps:float ->
  ?delta:float ->
  ?sampler:sampler ->
  ?budget:budget ->
  ?walk_steps:int ->
  ?rounding_rounds:int ->
  Polytope.t ->
  report option
(** Estimated volume of a bounded convex polytope; [None] when the body
    is empty or unbounded.  Defaults: [eps=0.25], [delta=0.25],
    hit-and-run, rigorous budget.  [rounding_rounds] is forwarded to
    {!Rounding.round} (0 disables isotropic whitening — ablation E14).

    The hit-and-run phases walk one warm-started chain of
    {!Polytope.Kernel.Batch} ({!Hit_and_run.phase_walk}).  Like every
    walk, they and the rounding draw ziggurat directions.
    @raise Invalid_argument on [Practical n] with [n < 1] or
    [walk_steps < 1]: a phase with no samples or no moves has no
    ratio to estimate. *)
