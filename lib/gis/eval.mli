(** Query evaluation: the symbolic baseline and the approximate planner.

    Two execution strategies for FO+LIN queries over an instance:

    - {!symbolic}: unfold relation atoms and run Fourier–Motzkin
      quantifier elimination — exact, but doubly exponential in the
      number of eliminated variables (the cost the paper wants to
      avoid);
    - {!compile}: build an {!Scdb_core.Observable.t} by composing the
      paper's generators — union for [∨], intersection for [∧],
      difference for guarded [¬], fiber-compensated projection for
      [∃] — giving sampling and volume estimation without any symbolic
      blowup.  Each quantifier-free convex piece, and each projected
      tuple's source ({!Project.of_source}), is built by
      {!observable_of_relation}, through the same plan pipeline
      [--engine vm-opt] runs. *)

val unfold : Instance.t -> Query.t -> Formula.t
(** Replace every relation atom by its instance definition (variables
    renamed into the query's).  The result is FO+LIN.
    @raise Invalid_argument on unpopulated relation names. *)

val symbolic : Instance.t -> free_dim:int -> Query.t -> Relation.t
(** Exact evaluation: unfold, eliminate quantifiers, normalize. *)

val observable_of_relation :
  ?config:Convex_obs.config -> Rng.t -> Relation.t -> Observable.t option
(** {!Plan_exec.prepare} for task [Volume] (ε, δ from
    {!Flight.default_eps}, {!Flight.default_delta}; they only price the
    routes), then {!Plan_exec.optimize} and {!Plan_exec.observe}: each
    leaf takes the exact-weight, exact-lattice or rejection-box route
    the one cost model picks, so the volume of a one-tuple 2-D relation
    is its exact area.  Default config is {!Plan_exec.prepare}'s,
    {!Convex_obs.practical_config}.  [None] when no tuple is
    full-dimensional.
    @raise Scdb_polytope.Volume_exact.Unbounded if a tuple is
    full-dimensional and unbounded. *)

val compile :
  ?config:Convex_obs.config ->
  ?poly_degree:int ->
  Rng.t ->
  Instance.t ->
  free_dim:int ->
  Query.t ->
  (Observable.t, string) result
(** The approximate planner.  Supported fragment: disjunctions of
    pieces [∃ z̄. (positive conjunction [∧ ¬guards])], where guards may
    not mention the quantified variables and pieces with quantifiers
    must be purely positive (the paper's Theorem 4.4 fragment plus
    guarded difference).  Returns [Error reason] outside the
    fragment, and [Error "relation is unbounded"] when a piece, with
    or without quantifiers, has a full-dimensional unbounded tuple. *)

val reconstruct :
  ?config:Convex_obs.config ->
  ?samples_per_piece:int ->
  Rng.t ->
  Instance.t ->
  free_dim:int ->
  Query.t ->
  (Reconstruct.t, string) result
(** Algorithm 5: reconstruct a positive existential query as a union of
    convex hulls, one per convex tuple of each piece: quantifier-free
    tuples from {!Plan_exec.observe_tuples}, quantified ones projected
    from a {!observable_of_relation} source, both under [config]
    (default {!Convex_obs.practical_config}, as {!Plan_exec}'s).
    Unbounded tuples are refused as in {!compile}. *)
