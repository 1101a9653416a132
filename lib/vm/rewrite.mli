(** The optimizing pass and the one plan→observable builder.

    {!optimize} is a plan-to-plan pass over a finalised plan and its
    prepared pieces.  It draws no rng.  With the {!Scdb_plan.Cost} rules
    it takes three rewrites, tags each node it rewrites and reprices
    it:

    - {e exact sampler} ({!Scdb_plan.Plan.exact_sampler}): a
      hit-and-run leaf with budgeted draws [n]
      ({!Scdb_plan.Plan.sample_calls}) whose face bound
      [Cost.exact_sampler_faces] is within [Cost.exact_sampler_face_cap]
      has its face lattice built ([p_lattice]); it becomes method
      ["exact"] when [Cost.exact_sampler_build_steps + n ·
      Cost.walk_steps_per_exact_draw] is below both [n] walks and [n]
      box draws ({!Scdb_plan.Plan.draw_route}), and is then priced at
      one trial a draw.  A leaf over the cap, or whose lattice build
      declines ({!Pyramid.decline}), keeps its walk or box and fires
      one [rewrite.exact_sampler_declined] warning
      ([vm.exact_declined]);
    - {e box substitution} ({!Scdb_plan.Plan.rejection_box_substituted}):
      otherwise a hit-and-run leaf becomes method ["rejection"] when its
      box trials per draw are at most its walk schedule and its rounded
      body has a bounding box.  Where the pass knows the leaf's volume
      (its lattice, or the Lasserre volume of an [exact_weight] leaf)
      the trials are the exact [vol(box)/vol(body)] in the rounded
      frame ([box_trials]); elsewhere [Cost.rejection_box_trials ~dim];
    - {e exact weight} ({!Scdb_plan.Plan.exact_weight}): where the plan
      reads a leaf's volume (under a union, or in a task with a volume
      phase), a leaf over one generalized tuple is priced both ways, and
      takes the exact route when [Cost.lasserre_calls ×
      Cost.walk_steps_per_lasserre_call] is at most its DFK volume walk
      ([phases × samples_per_phase × walk_steps]); its volume column
      then holds the Lasserre bound in steps.

    The interpreter runs the plan it is handed through {!observables},
    rewritten or not. *)

val optimize : Scdb_plan.Plan.t -> Convex_obs.prepared array -> Scdb_plan.Plan.t
(** The rewritten plan over the same pieces (given in preorder leaf
    order), refinalised for the same task.
    @raise Invalid_argument when the pieces are not one per leaf. *)

val hr_steps : Convex_obs.prepared -> int
(** The hit-and-run schedule a piece walks: its config's override, or
    {!Hit_and_run.default_steps} for its dimension. *)

val sampler_of_method : string -> Convex_obs.sampler
(** How a leaf's plan method picks its piece's sampler
    ({!Convex_obs.samplers}, and ["exact"] for
    {!Convex_obs.Exact_lattice}).
    @raise Invalid_argument on an unknown method. *)

val observables : Scdb_plan.Plan.t -> Convex_obs.prepared array -> Observable.t array
(** One observable per plan node, indexed by node id, each wrapped in
    {!Observable.tag} with its id: a dfk leaf is its piece under the
    sampler its method names, a union is {!Union.union} of its
    children.  A leaf tagged [exact_weight] answers volume requests
    with its piece's Lasserre volume ([p_exact_volume]); should the
    exact call raise, it falls back to its DFK estimate on the rng it
    is handed.
    Draws no rng.
    @raise Invalid_argument when the pieces are not one per leaf. *)
