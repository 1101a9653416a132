(** Well-rounding of convex bodies (the DFK preprocessing step).

    The paper assumes the body is brought to a position where it
    contains the unit ball and fits in a ball of radius [√(d(d+1))]
    before the walk starts.  We achieve a practical equivalent by
    iterated isotropic rescaling: sample with hit-and-run, whiten with
    the inverse Cholesky factor of the sample covariance, recentre on
    the Chebyshev centre, and finally scale the inscribed ball to
    radius 1. *)

type t = {
  transform : Affine.t; (* maps the original body onto [rounded] *)
  rounded : Polytope.t;
  centre : Vec.t; (* Chebyshev centre of [rounded]: the origin *)
  r_inf : float; (* inscribed-ball radius of [rounded] (≈ 1) *)
  r_sup : float; (* enclosing-ball radius of [rounded] *)
}

(** Why a body cannot be rounded. *)
type failure =
  | Empty
  | Flat
      (** lower-dimensional (no inscribed ball of positive radius), or
          too thin for the float LPs to round: measure zero *)
  | Unbounded  (** full-dimensional and unbounded: infinite volume *)

val inscribed_ball : Polytope.t -> (Vec.t * float, failure) result
(** The deterministic viability check {!round} makes before it draws
    anything: the Chebyshev ball [(centre, radius)] when the body is
    non-empty, bounded and full-dimensional (radius [> 0]), the
    failure otherwise.  The verdict comes from the statuses of the
    feasibility, bounding-box and Chebyshev LPs; a bounded body runs
    exactly the LPs it always did.  Draws no rng, so a static planner
    can drop (or refuse) the tuples the runtime would. *)

val round :
  Rng.t -> ?rounds:int -> ?samples_per_round:int -> Polytope.t -> (t, failure) result
(** [Error] when {!inscribed_ball} fails, or [Error Flat] when the
    float LPs cannot sandwich the rounded body.  Defaults: 2 rounds of
    [16·d] samples.  [volume_scale transform] converts volumes back:
    [vol(body) = vol(rounded) / Affine.volume_scale transform]. *)

val aspect_ratio : t -> float
(** [r_sup / r_inf] — the sandwiching quality actually achieved. *)
