(** The Dyer–Frieze–Kannan base case: convex well-bounded relations are
    observable.

    Builds an {!Observable.t} for a single generalized tuple: the
    generator walks a γ-grid on the well-rounded image of the body (the
    paper's construction), and the estimator is the multi-phase
    {!Scdb_sampling.Volume} scheme. *)

type sampler =
  | Grid_walk  (** the paper's lattice walk *)
  | Hit_and_run  (** continuous variant *)
  | Rejection_box
      (** exact-uniform rejection from the rounded body's bounding box;
          only sensible in low dimension (acceptance decays like the
          body/box volume ratio).  Falls back to hit-and-run when the
          attempt budget is exhausted.  Volume estimation still runs
          the hit-and-run multi-phase scheme. *)
  | Exact_lattice
      (** exactly uniform draws from the rounded body's face lattice
          ({!Scdb_sampling.Pyramid}); the optimizing pass's
          [exact_sampler] route, with no CLI method name.  Falls back to
          hit-and-run when the body has no lattice. *)

val samplers : (string * sampler) list
(** The method names the CLI gives the samplers: [walk], [grid],
    [rejection]. *)

val sampler_name : sampler -> string
(** Its {!samplers} name; ["exact"] for [Exact_lattice], the method a
    plan leaf takes on the exact route. *)

type config = {
  sampler : sampler;
  volume_budget : Volume.budget;
  walk_steps : int option; (* override the default mixing schedule *)
}

val default_config : config
(** Grid walk, rigorous budget, default mixing schedule. *)

val practical_config : config
(** Hit-and-run with a fixed per-phase budget — what the experiments use
    when wall-clock matters more than certified constants. *)

val make : ?config:config -> Rng.t -> Relation.t -> Observable.t option
(** Observable for a relation that must consist of exactly one
    generalized tuple (i.e. be convex).  The [Rng.t] drives the
    well-rounding preprocessing.  [None] when the body is empty,
    unbounded, or lower-dimensional.
    @raise Invalid_argument if the relation has more than one tuple. *)

val of_polytope :
  ?config:config -> ?relation:Relation.t -> Rng.t -> Polytope.t -> Observable.t option
(** Same, from an explicit float polytope.  When [relation] is given it
    is stored for reporting and used as the membership oracle;
    otherwise membership tests the polytope directly. *)

(** {2 Split construction}

    Generator construction has two halves: the rng-consuming
    well-rounding preprocessing and the (pure) closure building.
    [prepare] runs only the first and returns the preprocessed piece;
    [observe] builds the interpreted observable from it.
    [of_polytope rng p = Option.map observe (prepare rng p)] — same rng
    draw sequence — and the optimizing pass ({!Scdb_vm.Rewrite}) reads
    prepared pieces directly, so both engines share identical
    preprocessing streams. *)

type prepared = private {
  p_dim : int;
  p_config : config;
  p_relation : Relation.t option;
  p_original : Polytope.t;  (** the body as given, pre-rounding *)
  p_body : Polytope.t;  (** the well-rounded image the walks run in *)
  p_transform : Affine.t;  (** rounding map: body = transform(original) *)
  p_r_sup : float;  (** enclosing-ball radius of the rounded body *)
  p_box : (Vec.t * Vec.t) option Lazy.t;
      (** the rounded body's bounding box: its LPs are solved once, on
          first use, by whichever of the optimizing pass or a rejection
          sampler asks first; rng-free *)
  p_lattice : (Pyramid.t, Pyramid.decline) result Lazy.t;
      (** the rounded body's face lattice, built on first use (the
          optimizing pass prices the build first) and shared by both
          executors; rng-free *)
  p_exact_volume : float option Lazy.t;
      (** the Lasserre volume of the piece's tuple in the original
          frame, computed on first use ([vm.lasserre_calls] counts the
          calls); [None] without a single-tuple relation or when the
          exact call raises *)
}

val prepare :
  ?config:config -> ?relation:Relation.t -> Rng.t -> Polytope.t -> prepared option
(** Run the well-rounding preprocessing only.  Draws exactly the rng
    stream {!of_polytope} would; [None] under the same conditions. *)

val prepare_relation : ?config:config -> Rng.t -> Relation.t -> prepared option
(** [prepare] for a single-tuple relation, mirroring {!make}.
    @raise Invalid_argument if the relation has more than one tuple. *)

exception Unbounded
(** A relation with a full-dimensional unbounded tuple: its measure is
    infinite, so it has no uniform generator and no finite volume. *)

val prepare_tuples : ?config:config -> Rng.t -> Relation.t -> (Dnf.tuple * prepared) list
(** {!prepare_relation} on each generalized tuple of a relation, in
    tuple order, one shared rng: the tuples that survive paired with
    their pieces.  Measure-zero tuples (empty or lower-dimensional) are
    dropped.  The per-tuple loop every relation-level generator
    (both engines, the GIS evaluator) is built from.
    @raise Unbounded if a tuple is full-dimensional and unbounded. *)

val with_sampler : sampler -> prepared -> prepared
(** The same rounded piece under another sampler: no rng, no new
    preprocessing.  How a plan's per-leaf method reaches the piece. *)

val observe : prepared -> Observable.t
(** Build the interpreted observable over a prepared piece: its body
    oracle and hit-and-run schedule are made once here, and its
    membership test is {!Relation.mem_fn} (slack [1e-9]).  Pure — no
    rng draws. *)
