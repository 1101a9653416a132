(** Plan-tagged execution: the bridge from static plans to the
    progress bus and the predicted-vs-actual attribution table.

    {!prepare} runs a relation through the one preparation pipeline
    and returns the plan with the prepared pieces it covers;
    {!optimize} rewrites the plan over the same pieces; the
    interpreter ({!observe}) and the VM ({!compile}) consume either
    value, so every executor starts from identical preprocessing draws
    and runs the same plan.  {!observe} wraps every
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
(** Relation → per-tuple well-rounding ({!Convex_obs.prepare_tuples},
    the only rng-consuming stage) → plan ({!Plan_build.node_of_tuples}
    over the tuples that survived), finalised for [task].  [None] when
    no tuple survives (empty, unbounded or lower-dimensional).  Default
    config is {!Convex_obs.practical_config}. *)

val observe : prepared -> Observable.t
(** The interpreter: the root of {!Scdb_vm.Rewrite.observables} — one
    DFK observable per piece under the sampler its leaf's method
    names, under a Karp–Luby union when there are several, each node
    {!tag}ged with its plan id.  Draws no rng. *)

val optimize : prepared -> prepared
(** {!Scdb_vm.Rewrite.optimize} over the prepared pieces: the plan
    [--engine vm-opt] runs, on any executor.  Draws no rng. *)

val compile : ?optimize:bool -> prepared -> (Scdb_vm.Vm.t, string) result
(** The compiled engine: lower the plan and pieces through
    {!Scdb_vm.Vm.compile} — the same rng and sample stream as
    {!observe} on the same plan; [optimize:true] lowers the
    {!optimize}d plan.  [Error _] when the plan has a shape the
    compiler refuses. *)

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
(** {!prepare} then {!compile}, paired with the plan the program
    lowers (the rewritten one under [optimize:true]). *)

val arm : ?overrun_factor:float -> Scdb_plan.Plan.t -> unit
(** [Progress.start] with the plan's budget rows. *)

type attribution_row = {
  id : int;
  op : string;
  predicted : float;
  actual : float;
  ratio : float;  (** [actual/predicted]; [nan] when the node never ran *)
  tags : string list;  (** the plan node's rewrite tags *)
}

val attribution : Scdb_plan.Plan.t -> attribution_row array
(** Join the plan's budgets with the progress bus's accrued actuals,
    in node-id order.  Call after the run, before the next
    [Progress.start].  Each row carries its plan node's rewrite tags
    ([rejection_box_substituted], [exact_weight]). *)

val attribution_json : attribution_row array -> Scdb_json.Json.t
(** JSON array of rows; non-finite ratios (a node that never ran, or
    ran with zero predicted work) print as [null]. *)

val attribution_text : attribution_row array -> string
(** Fixed-width table for terminals. *)

type budget_row = {
  b_id : int;
  b_op : string;
  b_eps : float;  (** granted ε of the node's own estimation phase *)
  b_delta : float;  (** granted δ *)
  b_predicted : float;  (** predicted work (steps + trials) *)
  b_actual : float;  (** accrued work *)
  b_ratio : float;  (** [actual/predicted]; [nan] when the node never ran *)
  b_delta_achieved : float;
      (** the δ the node's spent work actually buys at its granted ε,
          via {!Scdb_plan.Cost.delta_at_work_ratio}; the granted δ for
          union, intersection and difference nodes, whose stopping
          rule holds it at any trial count; [0] for a dfk leaf tagged
          [exact_weight], which leaves its whole grant as slack; [nan] when it never
          ran *)
  b_slack : float;  (** [b_delta − b_delta_achieved]; negative = overdrawn *)
}
(** One node of the error-budget attribution: the (ε,δ) sub-contract
    the plan granted ({!Scdb_plan.Plan.error_budget}) joined with the
    work the node actually spent.  Guards carry [nan] throughout. *)

val budget_attribution : Scdb_plan.Plan.t -> attribution_row array -> budget_row array
(** Join grants with runtime actuals, in node-id order — the audit
    block of [spatialdb report] and the [error_budget] section of
    [spatialdb audit] documents. *)

val budget_attribution_json : budget_row array -> Scdb_json.Json.t
(** JSON array of rows; non-finite fields print as [null]. *)

val budget_attribution_text : budget_row array -> string
(** Fixed-width table for terminals. *)
