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

val copy : t -> t

(** {1 Stream provenance}

    Every generator carries a stable lineage id (assigned at
    {!create}/{!split}/{!copy} from a process-global counter) and a
    draw counter bumped once per raw 64-bit output.  Together they give
    the flight recorder a cheap, replayable description of which
    streams a run consumed and how far each was advanced. *)

val lineage : t -> int
(** Lineage id of this generator (unique within the process since the
    last {!Provenance.reset}). *)

val draw_count : t -> int
(** Raw 64-bit draws made through this handle since its creation
    (copies start at 0). *)

module Provenance : sig
  type info = { id : int; parent : int; op : string; draws : int }
  (** One lineage-tree node: [parent] is [-1] for roots, [op] is
      ["create"], ["split"] or ["copy"], [draws] the handle's current
      draw count. *)

  val set_tracking : bool -> unit
  (** Enable retention of the lineage tree in the calling domain's
      ambient table (off by default: tracking holds a reference to
      every registered generator, which a long-running untracked
      workload should not pay).  Retention is bounded: past the
      table's cap (default 65536 nodes) registrations are counted in
      {!dropped} instead of retained. *)

  val reset : unit -> unit
  (** Drop the ambient table's recorded tree and restart lineage ids
      at 0, so a replay reproduces the original ids.  (The id source
      is process-global and atomic; resetting it mid-run with other
      domains creating generators would hand out duplicate ids, so
      replays are single-context by construction.) *)

  val clear : unit -> unit
  (** Drop the ambient table's retained nodes and dropped count
      without touching the id source. *)

  val dropped : unit -> int
  (** Registrations not retained because the ambient table was at
      cap. *)

  val snapshot : unit -> info list
  (** All generators registered in the ambient table since the last
      {!reset}/{!clear} while tracking was on, in creation order (ids
      ascending). *)

  (** {2 Tables (observability contexts)}

      Retained lineage lives in a {e table}; contexts own one each and
      the pre-context global registry survives as the default table
      every domain starts with.  Ids come from one process-global
      atomic source, so tables merge without collisions. *)

  module Table : sig
    type t

    val create : ?cap:int -> unit -> t
    (** Fresh table (tracking off) retaining at most [cap] nodes
        (default 65536). *)

    val size : t -> int
    (** Retained nodes — bounded by the cap whatever the workload. *)

    val dropped : t -> int

    val merge_into : dst:t -> t -> unit
    (** Append [src]'s retained nodes in creation order into [dst],
        bounded by [dst]'s cap ([dst.dropped] also absorbs [src]'s
        dropped count).  Nodes whose parent is in neither table are
        re-rooted to [-1], so the merged lineage is still a forest.
        [src] is unchanged. *)
  end

  val with_table : Table.t -> (unit -> 'a) -> 'a
  (** Install a table as the calling domain's ambient lineage store
      for the duration of the thunk (exception-safe; nests).  Same
      domain/thread caveats as [Telemetry.with_registry]. *)

  val current_table : unit -> Table.t
end

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
