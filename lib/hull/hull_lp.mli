(** Implicit convex hulls in arbitrary dimension.

    Computing facets of a d-dimensional hull costs O(N^{d/2}) — the
    exponential step the paper's Proposition 4.3 confines to the low
    output dimension.  For everything else the hull stays implicit:
    membership is an LP feasibility question, and volumes are Monte
    Carlo estimates against that membership oracle. *)

type t

val of_points : Vec.t array -> t
(** @raise Invalid_argument on an empty array or mixed dimensions. *)

val dim : t -> int
val points : t -> Vec.t array

val mem : t -> Vec.t -> bool
(** LP feasibility: is the point a convex combination of the inputs? *)

val bounding_box : t -> Vec.t * Vec.t

val volume_mc : Scdb_rng.Rng.t -> ?samples:int -> t -> float
(** Monte Carlo volume from bounding-box sampling (additive error wrt
    the box volume; default 20_000 samples). *)

val symmetric_difference_mc :
  Scdb_rng.Rng.t -> ?samples:int -> t -> (Vec.t -> bool) -> lo:Vec.t -> hi:Vec.t -> float
(** MC volume of [hull Δ other] inside the box [[lo,hi]]. *)
