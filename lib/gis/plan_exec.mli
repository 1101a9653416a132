(** Plan-tagged execution: the bridge from static plans to the
    progress bus and the per-node ledger.

    {!prepare} runs a relation through the one preparation pipeline
    and returns the plan with the prepared pieces it covers;
    {!optimize} rewrites the plan over the same pieces; the
    interpreter ({!observe}) runs either value, so both engines start
    from identical preprocessing draws.  {!observe} wraps every
    observable so its sample/volume calls run inside
    [Progress.with_node] with the plan-node id — the accrued actuals
    land on exactly the node whose budget predicted them.  The wrapper
    is transparent to the RNG stream, so flight-recorder replay is
    unaffected. *)

val tag : int -> Observable.t -> Observable.t
(** Wrap sample/volume in [Progress.with_node id]. *)

type prepared = {
  plan : Scdb_plan.Plan.t;  (** finalised, over exactly the surviving pieces *)
  pieces : Convex_obs.prepared list;  (** one per surviving tuple, in tuple order *)
}
(** A relation made ready to run: the output of the one preparation
    pipeline every engine consumes. *)

val prepare :
  ?config:Convex_obs.config ->
  gamma:float ->
  eps:float ->
  delta:float ->
  task:Scdb_plan.Plan.task ->
  Rng.t ->
  Relation.t ->
  prepared option
(** Relation → per-tuple well-rounding ({!Convex_obs.prepare_relation}
    on each tuple, one shared rng: the only rng-consuming stage) → plan
    ({!Plan_build.node_of_tuples} over the tuples that survived),
    finalised for [task].  [None] when no tuple survives (every tuple
    empty or lower-dimensional).  Default config is
    {!Convex_obs.practical_config}.
    @raise Convex_obs.Unbounded if a tuple is full-dimensional and
    unbounded; so do the two [*_of_relation] wrappers below. *)

val observe_tuples : ?config:Convex_obs.config -> Rng.t -> Relation.t -> Observable.t list
(** One untagged DFK observable per surviving tuple, in tuple order,
    from the same per-tuple preparation {!prepare} runs (same rng
    stream), with no plan: what Algorithm 5 reconstructs one hull from
    each.  Default config is {!Convex_obs.practical_config}.
    @raise Convex_obs.Unbounded as {!prepare} does. *)

val observe : prepared -> Observable.t
(** The interpreter: the root of {!Scdb_vm.Rewrite.observables} — one
    DFK observable per piece under the sampler its leaf's method
    names, under a Karp–Luby union when there are several, each node
    {!tag}ged with its plan id.  Draws no rng. *)

val optimize : prepared -> prepared
(** {!Scdb_vm.Rewrite.optimize} over the prepared pieces: the plan
    [--engine vm-opt] runs.  Draws no rng. *)

val observable_of_relation :
  ?config:Convex_obs.config ->
  gamma:float ->
  eps:float ->
  delta:float ->
  task:Scdb_plan.Plan.task ->
  Rng.t ->
  Relation.t ->
  (Scdb_plan.Plan.t * Observable.t) option
(** {!prepare} then {!observe}. *)

val compiled_of_relation :
  ?config:Convex_obs.config ->
  ?optimize:bool ->
  gamma:float ->
  eps:float ->
  delta:float ->
  task:Scdb_plan.Plan.task ->
  Rng.t ->
  Relation.t ->
  (Scdb_plan.Plan.t * (Scdb_vm.Vm.t, string) result) option
(** {!prepare}, then {!optimize} under [optimize:true], then
    {!Scdb_vm.Vm.compile} on the result, paired with its plan. *)

val arm : Scdb_plan.Plan.t -> unit
(** [Progress.start] with the plan's work budgets. *)

(** {1 The per-node ledger}

    One row per plan node answers "where did this node's work and
    error budget go": the plan's prediction and (ε,δ) grant and the
    work the progress bus accrued.  Every per-node table and JSON block
    renders from these rows. *)

type row = {
  id : int;
  op : string;
  tags : string list;  (** the plan node's rewrite tags *)
  predicted : float;  (** the plan's inclusive work budget (steps + trials) *)
  actual : float;  (** accrued steps + trials; [0] when the node never ran *)
  eps : float;  (** granted ε of the node's own estimation phase *)
  delta : float;  (** granted δ ({!Scdb_plan.Plan.error_budget}) *)
}

val ledger : Scdb_plan.Plan.t -> row array
(** Join the plan's budgets, tags and grants with the progress bus's
    accrued actuals, in node-id order.  Call after the run, before the
    next [Progress.start]. *)

val ratio : row -> float
(** [actual/predicted]; [nan] when the node never ran, [infinity] when
    it ran with zero predicted work. *)

val delta_achieved : row -> float
(** The δ the node's spent work actually buys at its granted ε, via
    {!Scdb_plan.Cost.delta_at_work_ratio}; the granted δ for a union,
    whose stopping rule holds it at any trial count; [0] for a dfk leaf
    tagged [exact_weight], which
    leaves its whole grant as slack; [nan] when it never ran. *)

val slack : row -> float
(** [delta − delta_achieved]; negative = overdrawn. *)

type field = string * (row -> Scdb_json.Json.t)
(** One JSON key and its value for a row. *)

val cost_fields : field list
(** [id op predicted actual ratio tags]: the report's
    [cost_attribution] rows and regress's [plan_calibration]. *)

val budget_fields : field list
(** [id op eps delta predicted actual ratio delta_achieved slack]: the
    [error_budget] rows of report and audit documents. *)

val to_json : field list -> row array -> Scdb_json.Json.t
(** JSON array with one object per row, keys in field order;
    non-finite numbers print as [null]. *)

val to_text : row array -> string
(** Fixed-width table for terminals, leaving out every column no row
    fills (ratios and achieved δ on a plan that never ran, rewrites
    on an untagged plan). *)
