(** Exactly uniform draws from a memoised face lattice: the cone
    decomposition behind Lasserre's recursion, turned into a sampler.

    Take a k-face F of a polytope and an apex c_F in its relative
    interior.  The cones conv(c_F, G) over the facets G of F tile F,
    so vol_k(F) = Σ_G h(c_F, G)·vol_{k−1}(G)/k, where h is the distance
    from c_F to aff(G) measured inside aff(F), and every term is ≥ 0.
    A uniform point of F is then: a facet G drawn with probability
    ∝ h·vol(G), a uniform point y of G (recursively; a 0-face is its
    vertex), and c_F + U^{1/k}·(y − c_F).

    {!build} enumerates the body's vertices, keys every face by the set
    of rows tight on all of its vertices (so a non-simple vertex and a
    redundant row each give one face), takes each face's apex as the
    mean of its vertices, and stores each face's cumulative facet
    weights.  A draw costs [d] facet choices, [d] uniforms and O(d²)
    flops, and is exactly uniform up to float rounding: no walk runs.
    Building draws no rng. *)

type t

(** Why a body gets no lattice.  Each is a typed answer, never an
    exception; the caller keeps its walk or box. *)
type decline =
  | Too_many_rows of int  (** more rows than a machine-word row set holds (62) *)
  | No_interior  (** fewer than d+1 vertices, or the origin is not interior *)
  | Ill_conditioned_vertex of float
      (** a feasible vertex system whose smallest pivot (rows scaled to
          unit norm) lies in [[1e-12, 1e-8)]: singular enough to misplace
          the vertex, not enough to drop it *)
  | Apex_on_facet  (** a vertex-mean apex at distance ≤ 0 from a facet of its face *)
  | Apex_volumes_disagree of { vertex_mean : float; origin : float }
      (** the body's volume through the vertex-mean apex and through
          the origin differ by more than 1e-9 relative *)

val decline_reason : decline -> string

val build : Polytope.t -> (t, decline) result
(** The lattice of a bounded full-dimensional body whose origin is an
    interior point (a rounded body).  Enumerates C(m,d) vertex
    candidates and at most Σ_{j≤d} C(m,j) faces for [m] rows, the
    bound {!Scdb_plan.Cost.exact_sampler_faces} prices. *)

val sample : t -> Rng.t -> Vec.t
(** One exactly uniform point of the body: [2d] rng floats, [d] facet
    choices drawn top-down, then [d] radial uniforms applied bottom-up.
    Reports one trial through [Scdb_obs.Probe] ([pyramid.trials]). *)

val volume : t -> float
(** The body's volume through the vertex-mean apexes. *)

val faces : t -> int
(** Faces stored, the body and its vertices included. *)

val vertices : t -> int

val bounding_box : t -> Vec.t * Vec.t
(** The body's bounding box, read off its vertices: no LP. *)

