(** Exact volume of bounded polyhedra and generalized relations.

    Lasserre's recursion over exact rationals: the d-volume of
    [{A x <= b}] is [1/d · Σᵢ bᵢ/|a_{i,k}| · vol(facet i)] once facet
    [i] is parametrized by solving its hyperplane for coordinate [k]
    (the Euclidean norms cancel, keeping everything rational).

    Exponential in the dimension and polynomial for fixed dimension —
    exactly the role the Bieri–Nef sweep-plane algorithm plays in the
    paper's Lemma 3.1.  Serves as ground truth for every estimator
    test and experiment. *)

exception Unbounded
(** A non-empty unbounded polyhedron: its measure is infinite.  The one
    refusal of a relation of infinite measure, which has no uniform
    generator and no finite volume: the exact volumes here and the
    per-tuple preparation in [Scdb_core.Convex_obs] both raise it. *)

val volume_system :
  ?calls:int ref ->
  ?nonempty:bool ->
  dim:int ->
  Rational.t array array ->
  Rational.t array ->
  Rational.t
(** Exact volume of [{x ∈ R^dim | A x <= b}].  For [dim >= 2] one exact
    feasibility LP decides emptiness, so an empty system costs no
    recursion; in dim 0 the system is non-empty exactly when every
    [b_i >= 0], and in dim 1 the base case finds an empty interval
    itself.  Boundedness is left to the recursion, which reaches a 1-D
    base case missing a bound exactly when a non-empty system is
    unbounded.

    [calls] is incremented once per call of the Lasserre recursion.
    With [m] rows in dimension [d] there are at most
    [Σ_{k<d} m!/(m−k)!] of them: a call at depth [k] recurses once
    per remaining row into a system one dimension and at least one
    row smaller, and preprocessing only removes rows
    ([Scdb_plan.Cost.lasserre_calls]).

    [nonempty] (default [false]) is the caller's promise that the set
    is non-empty: the feasibility LP is skipped.  The answer is the
    same either way, since the recursion returns 0 on an empty system
    itself; with big-rational rows the LP is most of a call's cost.
    @raise Unbounded if the polyhedron is non-empty and unbounded. *)

val tuple_rows : Dnf.tuple -> int
(** Rows of the system {!volume_tuple} builds from a tuple: one per
    inequality atom, two per equation. *)

val volume_tuple : ?calls:int ref -> ?nonempty:bool -> dim:int -> Dnf.tuple -> Rational.t
(** Volume of the convex set of one generalized tuple; [calls] and
    [nonempty] as in {!volume_system}. *)

val volume_relation : ?max_tuples:int -> Relation.t -> Rational.t
(** Volume of a finite union of tuples, by inclusion–exclusion over the
    (possibly overlapping) tuples.  Subsets containing a subset of
    volume 0 are skipped: their intersection lies in an empty or flat
    bounded set, so they add 0 and cannot raise.  Cost is at most [2^t]
    exact volume calls for [t] tuples, and [t + t(t−1)/2] when every
    two tuples meet in volume 0; [max_tuples] (default
    16) guards the blowup.
    @raise Invalid_argument if the relation has more tuples than that.
    @raise Unbounded if some non-empty intersection is unbounded. *)

val float_volume_relation : ?max_tuples:int -> Relation.t -> float
