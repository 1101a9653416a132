(** Hit-and-run sampler on convex bodies.

    The continuous cousin of the lattice walk: pick a uniform direction,
    intersect the chord with the body, land uniformly on the chord.
    Mixes in [O*(d³)] from a warm start and needs no grid, so the
    multi-phase volume estimator and the rounding procedure both run on
    it; the lattice walk remains the reference sampler for the paper's
    grid-based definitions. *)

type chord = Vec.t -> Vec.t -> (float * float) option
(** [chord x dir] is the parameter interval of the body along
    [t ↦ x + t·dir], or [None] if the line misses it. *)

val polytope_chord : Polytope.t -> chord

val ball_chord : centre:Vec.t -> radius:float -> chord
(** Analytic chord of a Euclidean ball. *)

val intersect_chords : chord list -> chord
(** Chord of the intersection of bodies. *)

val sample :
  ?monitor:Scdb_diag.Diag.Monitor.t -> Rng.t -> chord:chord -> start:Vec.t -> steps:int -> Vec.t
(** Position after [steps] hit-and-run moves from [start] (which must
    lie in the body: the chord through it must be non-empty).  When a
    [monitor] is attached, every step feeds it the current position and
    an accept (moved) or reject (degenerate chord) event. *)

val phase_walk : Rng.t -> Polytope.Kernel.Batch.batch -> radius:float -> steps:int -> unit
(** The multi-phase volume estimator's walk on [poly ∩ B(0, radius)],
    [poly] being the batch's polytope:
    {!Polytope.Kernel.Batch.hit_and_run_in_ball}, which moves the
    batch's one chain in place on ziggurat directions and the cached
    [A·x], plus the same accounting as {!sample}: the
    [hit_and_run.samples], [.steps] and [.chord_degenerate] counters,
    the progress steps and the [hit_and_run.stuck] warning, charged
    once per call.  Allocation-free per step.
    @raise Invalid_argument unless the batch has exactly one chain. *)

val sample_polytope_batch :
  ?monitors:Scdb_diag.Diag.Monitor.t array ->
  Rng.t array ->
  Polytope.t ->
  starts:Vec.t array ->
  steps:int ->
  Vec.t array
(** Step K chains in lockstep on the batched structure-of-arrays kernel
    ({!Polytope.Kernel.Batch}): one shared pass over the constraint
    matrix computes all K chords per step.  With one chain this is the
    pipeline's polytope walk (observation and rounding): like {!sample}
    with {!polytope_chord}, on the same rng stream and the same
    trajectory up to rounding, with an allocation-free inner loop at
    roughly half the arithmetic per step.  Chain [c] consumes only
    [rngs.(c)], so chains are independent given independent generators
    (use {!Rng.split} per chain).  Telemetry/progress/trace accounting
    is per batch invocation, not per step.  When [monitors] is given
    (one per chain), each chain feeds its monitor exactly like
    {!sample} does.
    @raise Invalid_argument on empty or mismatched array lengths. *)

val default_steps : dim:int -> int
(** Practical schedule [max 60 (10·d·ln d · …)] used by the pipeline. *)
