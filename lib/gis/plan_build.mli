(** Query plans for GIS relations.

    {!node_of_tuples} is the one plan builder: a single generalized
    tuple becomes a DFK leaf (costed for the configured sampler and
    volume budget), several become a Karp–Luby union root whose
    children are costed at the sub-call parameters the runtime threads
    down ({!Scdb_plan.Cost.child_grant}: ε/3, δ/(4m)).  The executor
    ({!Plan_exec.prepare}) feeds it the tuples whose preparation
    succeeded; the EXPLAIN path ({!node_of_relation}) feeds it the
    tuples that pass the rounding's deterministic viability check
    ({!Scdb_sampling.Rounding.inscribed_ball}), without touching an
    RNG, and refuses what the executor refuses. *)

val leaf_node :
  ?config:Convex_obs.config ->
  eps:float ->
  delta:float ->
  dim:int ->
  Scdb_constr.Dnf.tuple ->
  Scdb_plan.Plan.node
(** Unchecked DFK leaf for one tuple, labelled with the sampler's CLI
    method name.  Default config is {!Convex_obs.practical_config}. *)

val node_of_tuples :
  ?config:Convex_obs.config ->
  eps:float ->
  delta:float ->
  dim:int ->
  Scdb_constr.Dnf.tuple list ->
  Scdb_plan.Plan.node option
(** Plan tree over the given tuples, in order: [None] for no tuple, a
    leaf for one, a union of leaves for several. *)

val node_of_relation :
  ?config:Convex_obs.config ->
  eps:float ->
  delta:float ->
  Relation.t ->
  Scdb_plan.Plan.node option
(** {!node_of_tuples} over the relation's viable tuples (non-empty,
    bounded, full-dimensional): [None] when there is none.
    @raise Convex_obs.Unbounded if a tuple is full-dimensional and
    unbounded, as {!Plan_exec.prepare} does. *)

val of_relation :
  ?config:Convex_obs.config ->
  gamma:float ->
  eps:float ->
  delta:float ->
  task:Scdb_plan.Plan.task ->
  Relation.t ->
  Scdb_plan.Plan.t option
(** {!node_of_relation} followed by [Plan.finalize]. *)
