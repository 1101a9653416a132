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

val phase_walk :
  Rng.t ->
  Polytope.t ->
  radius:float ->
  pos:Vec.t ->
  dir:Vec.t ->
  range:float array ->
  steps:int ->
  unit
(** The multi-phase volume estimator's walk on [poly ∩ B(0, radius)]:
    [steps] hit-and-run moves advancing [pos] in place, with [dir] (the
    body's dimension) and [range] (length >= 2) as caller-owned
    scratch.  Bit-identical to
    [sample ~chord:(intersect_chords [polytope_chord poly; ball_chord
    ~centre:0 ~radius]) ~start:pos] — same rng draws, positions,
    telemetry, progress steps and stuck warning — without the per-step
    allocation of the closure-built chord.  The chord arithmetic is
    {!Polytope.line_intersection_into}'s, not the incremental cursor's,
    whose cached products round differently.
    @raise Invalid_argument on dimension mismatch. *)

val sample_polytope :
  ?monitor:Scdb_diag.Diag.Monitor.t -> Rng.t -> Polytope.t -> start:Vec.t -> steps:int -> Vec.t
(** Like [sample] with [polytope_chord], but runs on the incremental
    cached-product kernel ({!Polytope.Kernel}): same rng stream and the
    same trajectory up to rounding, with an allocation-free inner
    loop at roughly half the arithmetic per step. *)

type dir_mode =
  | Compat  (** Polar-method directions: per-chain rng stream identical
                to {!sample_polytope}, so K=1 (and each chain of a
                same-seeded K>1 batch) replays bit-exactly against the
                single-chain kernel.  The default at K = 1. *)
  | Fast  (** Ziggurat directions ({!Rng.unit_vector_into_fast}): same
              distribution, cheaper and on a distinct deterministic
              stream.  The default at K > 1, where direction draws
              dominate the amortized batched step. *)

val sample_polytope_batch :
  ?monitors:Scdb_diag.Diag.Monitor.t array ->
  ?dir_mode:dir_mode ->
  Rng.t array ->
  Polytope.t ->
  starts:Vec.t array ->
  steps:int ->
  Vec.t array
(** Step K chains in lockstep on the batched structure-of-arrays kernel
    ({!Polytope.Kernel.Batch}): one shared pass over the constraint
    matrix computes all K chords per step.  Chain [c] consumes only
    [rngs.(c)], so chains are independent given independent generators
    (use {!Rng.split} per chain).  Telemetry/progress/trace accounting
    is per batch invocation, not per step.  When [monitors] is given
    (one per chain), each chain feeds its monitor exactly like the
    single-chain samplers do.
    @raise Invalid_argument on empty or mismatched array lengths. *)

val default_steps : dim:int -> int
(** Practical schedule [max 60 (10·d·ln d · …)] used by the pipeline. *)
