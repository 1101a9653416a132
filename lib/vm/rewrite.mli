(** The optimizing pass and the one plan→observable builder.

    {!optimize} is a plan-to-plan pass over a finalised plan and its
    prepared pieces.  It draws no rng and computes no volume.  With the
    {!Scdb_plan.Cost} rules it takes two rewrites, tags each node it
    rewrites and reprices it:

    - {e box substitution} ({!Scdb_plan.Plan.rejection_box_substituted}):
      a hit-and-run leaf becomes method ["rejection"] when
      [Cost.rejection_box_trials ~dim] is at most its walk schedule and
      its rounded body has a bounding box; it is then priced in trials;
    - {e exact weight} ({!Scdb_plan.Plan.exact_weight}): where the plan
      reads a leaf's volume (under a union, or in a task with a volume
      phase), a leaf over one generalized tuple is priced both ways, and
      takes the exact route when [Cost.lasserre_calls ×
      Cost.walk_steps_per_lasserre_call] is at most its DFK volume walk
      ([phases × samples_per_phase × walk_steps]); its volume column
      then holds the Lasserre bound in steps.

    Every executor runs the plan it is handed through {!observables}
    (the interpreter directly, the VM for its weight prologues), so the
    interpreter on a rewritten plan and the VM on the same plan draw
    the same stream. *)

val optimize : Scdb_plan.Plan.t -> Convex_obs.prepared array -> Scdb_plan.Plan.t
(** The rewritten plan over the same pieces (given in preorder leaf
    order), refinalised for the same task.
    @raise Invalid_argument when there are fewer pieces than leaves. *)

val hr_steps : Convex_obs.prepared -> int
(** The hit-and-run schedule a piece walks: its config's override, or
    {!Hit_and_run.default_steps} for its dimension. *)

val sampler_of_method : string -> Convex_obs.sampler
(** How a leaf's plan method picks its piece's sampler
    ({!Convex_obs.samplers}).
    @raise Invalid_argument on an unknown method. *)

val observables : Scdb_plan.Plan.t -> Convex_obs.prepared array -> Observable.t array
(** One observable per plan node, indexed by node id, each wrapped in
    {!Observable.tag} with its id: a dfk leaf is its piece under the
    sampler its method names, a union is {!Union.union} of its
    children.  A leaf tagged [exact_weight] answers volume requests
    with the Lasserre volume of its tuple, computed on first use and
    kept ([vm.lasserre_calls] counts the calls); should the exact call
    raise, it falls back to its DFK estimate on the rng it is handed.
    Draws no rng.
    @raise Invalid_argument on any other operator. *)
