(** Query plans for GIS relations.

    {!node_of_tuples} is the one plan builder: a single generalized
    tuple becomes a DFK leaf (costed for the configured sampler and
    volume budget), several become a Karp–Luby union root whose
    children are costed at the sub-call parameters the runtime threads
    down ({!Scdb_plan.Cost.child_grant}: ε/3, δ/(4m)).  Its one caller
    in [lib/], {!Plan_exec.prepare}, feeds it the tuples whose
    preparation succeeded; [explain] prints the plan [prepare] builds. *)

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
