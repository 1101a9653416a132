(** Deterministic, splittable pseudo-random generator (xoshiro256 star-star).

    Every randomized algorithm in this repository takes an explicit
    [Rng.t]; experiments and tests construct them from fixed seeds, so
    all results are reproducible bit-for-bit. *)

type t

val create : int -> t
(** New generator from an integer seed (expanded by splitmix64). *)

val split : t -> t
(** Child generator whose stream is independent of the parent's
    subsequent outputs. *)

val draw_count : t -> int
(** Raw 64-bit draws made through this handle since its creation — the
    flight recorder's stream position. *)

(** {1 Scalar draws} *)

val float : t -> float
(** Uniform in [[0,1)]. *)

val uniform : t -> float -> float -> float
(** Uniform in [[lo, hi)]. *)

val float_into : t -> float array -> int -> unit
(** [float_into t buf i] stores a {!float} draw in [buf.(i)]: the same
    draw, without allocating a boxed result. *)

val int : t -> int -> int
(** Uniform in [[0, bound)]; [bound > 0]. *)

val bool : t -> bool
val bits64 : t -> int64

val gaussian : t -> float
(** Standard normal deviate (Marsaglia polar method).  Seeded geometry
    ({!unit_vector}, {!in_ball}) draws on it; no walk does. *)

val gaussian_fast : t -> float
(** Standard normal deviate by the 128-layer ziggurat: ~97.5% of draws
    cost one raw 64-bit output, one table compare and one multiply.
    Deterministic given the seed, but consumes the stream differently
    from {!gaussian}.  Every walk's directions are built on it. *)

(** {1 Vector draws}

    Walk directions come from the allocation-free ziggurat fills
    ([*_fast]); the allocating polar forms serve seeded geometry whose
    coordinates are pinned (random parcels, test and bench fixtures). *)

val unit_vector_slice_fast : t -> float array -> int -> int -> unit
(** [unit_vector_slice_fast t buf off len] overwrites
    [buf.(off) .. buf.(off + len - 1)] with a uniform unit vector of
    dimension [len], built on {!gaussian_fast}, without allocating.
    The batched kernels stage each chain's direction straight into its
    chain-major block slot with it. *)

val unit_vector_into_fast : t -> Vec.t -> unit
(** {!unit_vector_slice_fast} over the whole buffer. *)

val in_ball_slice_fast : t -> float array -> int -> int -> unit
(** Uniform point of the [len]-dimensional closed unit ball into
    [buf.(off) .. buf.(off + len - 1)]: a {!unit_vector_slice_fast}
    direction scaled by a radius draw.  Allocation-free. *)

val in_ball_into_fast : t -> Vec.t -> unit
(** {!in_ball_slice_fast} over the whole buffer. *)

val unit_vector : t -> int -> Vec.t
(** Uniform on the unit sphere of the given dimension (polar stream). *)

val in_ball : t -> int -> Vec.t
(** Uniform in the closed unit ball (polar stream). *)

val in_box : t -> Vec.t -> Vec.t -> Vec.t
(** Uniform in the axis-parallel box [[lo, hi]]. *)

(** {1 Collections} *)

val shuffle : t -> 'a array -> unit
val pick : t -> 'a array -> 'a
(** @raise Invalid_argument on an empty array. *)

val categorical : t -> float array -> int
(** Draw an index with probability proportional to the (non-negative)
    weights.  The returned index always has positive weight, even when
    rounding pushes the scaled draw to the total weight.
    @raise Invalid_argument if all weights are zero. *)
