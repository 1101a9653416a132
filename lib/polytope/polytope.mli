(** Convex polyhedra in halfspace representation [{x | A x <= b}].

    The float-level geometric object behind a generalized tuple: the
    samplers walk inside it, the LP layer measures it, and the affine
    rounding maps it.  Strictness of the original constraints is
    deliberately dropped — all volume statements in the paper are
    insensitive to boundaries. *)

type t = private {
  dim : int;
  a : Mat.t;
  b : Vec.t;
  flat : float array;
      (** Row-major copy of [a] ([m·dim] entries); the cache-friendly
          representation every hot path (membership, chords, the
          incremental kernel) runs on.  Maintained by the constructors —
          treat as read-only. *)
}

val make : dim:int -> Mat.t -> Vec.t -> t
(** @raise Invalid_argument on shape mismatch. *)

val of_tuple : dim:int -> Dnf.tuple -> t
(** Halfspaces of a generalized tuple; equality atoms become two
    opposite inequalities. *)

val to_tuple : t -> Dnf.tuple
(** Back to exact atoms (coefficients via {!Scdb_num.Rational.of_float},
    so the round-trip is exact on dyadic data). *)

val box : Vec.t -> Vec.t -> t
val unit_cube : int -> t
val cube : int -> float -> t
(** [cube d r] is [[-r,r]^d]. *)

val simplex : int -> t
(** Standard simplex [{x >= 0, Σ x <= 1}]. *)

val cross_polytope : int -> float -> t
(** L1 ball of radius [r]: [2^d] facets. *)

val dim : t -> int
val num_constraints : t -> int

val mem : ?slack:float -> t -> Vec.t -> bool

val violation : t -> Vec.t -> float
(** [max_i (a_i·x − b_i)]: non-positive iff the point is inside. *)

val add_halfspace : t -> Vec.t -> float -> t
(** Intersect with [{x | w·x <= c}]. *)

val inter : t -> t -> t

val transform : Affine.t -> t -> t
(** Image under an invertible affine map:
    [transform f p = {f x | x ∈ p}]. *)

val translate : Vec.t -> t -> t

val chebyshev : t -> (Vec.t * float) option
(** Centre and radius of a largest inscribed ball; [None] if empty or
    the LP is unbounded (unbounded polyhedron). *)

val bounding_box : t -> (Vec.t * Vec.t) option
(** Componentwise LP bounds; [None] if empty or unbounded. *)

val is_empty : t -> bool
val is_bounded : t -> bool

val sandwich : t -> (Vec.t * float * float) option
(** [(centre, r_inf, r_sup)]: an inscribed ball radius and an enclosing
    ball radius around the Chebyshev centre — the well-boundedness
    witnesses of the paper.  [None] for empty or unbounded bodies. *)

val line_intersection : t -> Vec.t -> Vec.t -> (float * float) option
(** [line_intersection p x dir]: the parameter interval [(tmin, tmax)]
    of [{t | x + t·dir ∈ p}], or [None] when empty: a line parallel to
    a violated row, or bounds that cross.  An endpoint is infinite
    where the line leaves no row on that side.  Recomputes every
    [⟨a_i, x⟩]; the walks use {!Kernel.Batch}'s cached products
    instead.
    @raise Invalid_argument on dimension mismatch. *)

(** Incremental walk kernel.

    {!Kernel.Batch} is the one cached-product kernel the polytope
    walks run on: hit-and-run, the lattice walk, the batched ball walk,
    the volume estimator's phases and the generators' draws, at K = 1
    chain or many.
    Each chain tracks a moving point [x] together with the per-row
    products [⟨a_i, x⟩] (the [A·x] cache).  After a chord step
    [x ← x + t·d] the cache is updated as [A·x ← A·x + t·(A·d)] —
    [O(m)] instead of the [O(m·d)] recomputation — and a
    single-coordinate lattice move only touches one column.

    Invariant: each chain's cache equals [A·x] up to rounding drift,
    which is bounded by an exact recomputation every
    [refresh_interval] cache updates. *)
module Kernel : sig
  val refresh_interval : int

  (** Batched multi-chain kernel (structure of arrays).

      [Batch] steps K chains per pass over the flat constraint matrix:
      positions, directions and [A·x] caches are chain-major blocks of
      one contiguous float array each, and the shared passes walk
      chains in register blocks of four so each matrix element is
      loaded once per block and every dot-product accumulator stays in
      a register.  At K = 1, {!chord_all} runs one plain row loop
      instead.  Per-chain arithmetic (accumulation pairing, cross-
      multiplied chord comparisons, refresh cadence) does not depend
      on K, so a chain stepped in a batch of K follows the same
      trajectory, bit for bit, as the same chain stepped alone.  All
      scratch lives in the batch state: the per-step operations below
      are allocation-free (test-enforced).

      Every per-chain call ({!pos}, {!set_dir}, {!set_pos}, {!advance},
      {!try_set_coord}, {!refresh_chain}) checks [0 <= c < chains]
      before touching any state.
      @raise Invalid_argument from those calls on a chain index out of
      range. *)
  module Batch : sig
    type batch

    val make : t -> Vec.t array -> batch
    (** Batch over K start points (copied), one chain each.
        @raise Invalid_argument on K = 0 or dimension mismatch. *)

    val chains : batch -> int
    val dim : batch -> int

    val pos : batch -> int -> Vec.t
    (** Copy of chain [c]'s current position. *)

    val positions : batch -> float array
    (** The raw chain-major [K×dim] position block — read-only. *)

    val set_dir : batch -> int -> Vec.t -> unit
    (** Stage chain [c]'s direction (or ball-walk displacement) into its
        slot of the chain-major direction block.  Allocation-free. *)

    val set_pos : batch -> int -> Vec.t -> unit
    (** [set_pos b c start]: reset chain [c] to [start] (copied) and
        rebuild its cache block — equivalent to chain [c] of a fresh
        {!make}, so a long-lived batch can be reused across draws
        without re-running construction.
        @raise Invalid_argument on dimension mismatch. *)

    val directions : batch -> float array
    (** The raw chain-major [K×dim] direction staging block; chain [c]
        owns [c·dim .. c·dim + dim − 1].  Writing a slot directly (e.g.
        via [Rng.unit_vector_slice_fast]) is equivalent to {!set_dir} and
        skips the intermediate staging vector. *)

    val chord_all : batch -> unit
    (** Intersect every chain's line [x_c + t·dir_c] with the body in
        one shared pass over the matrix, recording [A·dir_c] for
        {!advance}.  Endpoints via {!lo}/{!hi}; a chain whose chord is
        empty gets [lo > hi] (a line parallel to a violated row gets
        [lo = ∞], [hi = −∞]).  Allocation-free. *)

    val lo : batch -> int -> float
    val hi : batch -> int -> float
    (** Chord interval of chain [c] from the latest {!chord_all}. *)

    val lows : batch -> float array
    val highs : batch -> float array
    (** The raw per-chain chord-endpoint arrays behind {!lo}/{!hi} —
        read-only, indexed by chain.  The samplers' accept loops read
        these directly, one array load per chain instead of two calls
        per draw. *)

    val advance : batch -> int -> float -> unit
    (** [advance b c t]: move chain [c] along its staged direction by
        [t], updating its cache block incrementally; exact refresh
        every {!refresh_interval} accepted moves.  Allocation-free. *)

    val hit_and_run_in_ball :
      batch -> Scdb_rng.Rng.t -> radius:float -> steps:int -> int
    (** [hit_and_run_in_ball b rng ~radius ~steps]: [steps] hit-and-run
        moves of a one-chain batch on [poly ∩ B(0, radius)], the volume
        estimator's phase walk.  Each step stages a ziggurat direction
        ({!Scdb_rng.Rng.unit_vector_slice_fast}), takes the polytope
        chord from {!chord_all}, clips it to the ball in place on
        {!lows}/{!highs}, and moves to a uniform point of what is left
        ({!Scdb_rng.Rng.float_into}).  An empty, zero-length or
        non-finite chord leaves the chain where it is.  Returns the
        number of such degenerate steps.  Allocation-free per step.
        @raise Invalid_argument unless the batch has exactly one
        chain. *)

    val propose_all : batch -> unit
    (** Ball-walk support: with per-chain displacements staged via
        {!set_dir}, compute every chain's worst constraint violation at
        [x_c + delta_c] in one shared pass (read via {!violation});
        commit an accepted chain with [advance b c 1.0].
        Allocation-free. *)

    val violation : batch -> int -> float
    (** Worst violation of chain [c]'s latest {!propose_all} proposal;
        non-positive iff the proposed point is inside. *)

    val violations : batch -> float array
    (** The raw per-chain violation array behind {!violation} —
        read-only, indexed by chain. *)

    val try_set_coord : ?slack:float -> batch -> int -> int -> float -> bool
    (** [try_set_coord b c j v]: the lattice-walk move for chain [c] —
        commit coordinate [j := v] iff still feasible within [slack].
        Allocation-free. *)

    val refresh_chain : batch -> int -> unit
    (** Recompute chain [c]'s cache block from its position. *)
  end
end

val pp : Format.formatter -> t -> unit
