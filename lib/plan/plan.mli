(** Static query plans with paper-derived cost estimates.

    A plan is the tree the executor runs: convex/DFK leaves under at
    most one Karp–Luby union, where every node carries an {e a-priori}
    cost estimate (predicted rng draws, membership tests, walk steps
    and rejection trials) computed from the (γ,ε,δ) parameters with the
    formulas of {!Cost}.  Nothing is sampled to build a plan: it is the
    EXPLAIN side of the pipeline, and the budgets it prescribes are the
    ones the progress bus and the overrun watchdog hold the execution
    to.

    The comparable work metric is [steps + trials] — exactly the units
    the instrumented samplers report at run time — while draws and
    membership tests ride along for inspection.  Serializes to the
    versioned [spatialdb-plan/1] JSON schema (with a reader for tests
    and validators) and to an indented text tree. *)

type units = { draws : float; mems : float; steps : float; trials : float }

val work : units -> float
(** [steps + trials]: the portion of the estimate the runtime can
    observe cheaply (walk steps and rejection/acceptance trials), and
    therefore the unit predicted budgets and actuals are compared in. *)

val zero : units
val add_units : units -> units -> units
val scale_units : float -> units -> units

(** Operator of a plan node, carrying the paper-prescribed budgets the
    node was costed with. *)
type op =
  | Dfk of {
      method_ : string;
      walk_steps : int;
      phases : int;
      samples_per_phase : int;
      constraints : int;
      lasserre_calls : float option;
          (** the proven bound on the exact route's Lasserre calls
              ({!Cost.lasserre_calls}), where the optimizing pass
              priced that route; [None] elsewhere *)
      box_trials : float option;
          (** the box's exact trials per draw, [vol(box)/vol(body)] in the
              rounded frame ({!Cost.rejection_box_trials_exact}), where the
              optimizing pass knew the leaf's volume; [None] prices a box
              at {!Cost.rejection_box_trials} *)
      exact_build : float option;
          (** the exact sampler's build price in walk steps
              ({!Cost.exact_sampler_build_steps}), where the optimizing
              pass built the leaf's lattice and priced that route *)
    }
      (** Convex leaf: DFK lattice walk / hit-and-run / rejection-box /
          exact-lattice generator plus the multi-phase volume
          estimator. *)
  | Union_op of { trials : int; volume_trials : int }
      (** Karp–Luby union (Theorem 4.1). *)

type node = {
  id : int;  (** preorder index, assigned by {!finalize}; [-1] before *)
  op : op;
  dim : int;
  per_sample : units;  (** inclusive expected cost of one generator call *)
  per_volume : units;  (** inclusive expected cost of one volume estimation *)
  children : node list;
  tags : string list;
      (** rewrites the optimizing pass applied to this node, sorted:
          {!exact_sampler}, {!exact_weight},
          {!rejection_box_substituted}; [[]] on a plan as built *)
}

val exact_weight : string
(** ["exact_weight"]: the leaf's weight is its exact Lasserre volume,
    and its volume cost is its call bound in walk steps. *)

val exact_sampler : string
(** ["exact_sampler"]: the leaf draws from its face lattice (method
    ["exact"]), one trial a draw; its build is priced in
    [exact_build]. *)

val rejection_box_substituted : string
(** ["rejection_box_substituted"]: a hit-and-run leaf runs box
    rejection instead, priced in trials. *)

val reprice : node -> node
(** Recompute the node's inclusive [per_sample]/[per_volume] from its
    op, tags and children (whose own costs are taken as they are): the
    step a plan-to-plan pass takes after changing a node. *)

val weight_costs : node -> (float * float) option
(** For a dfk leaf with [lasserre_calls]: the two prices of its
    weight in walk steps, [(calls · Cost.walk_steps_per_lasserre_call,
    phases · samples_per_phase · walk_steps)]. *)

val draw_route : calls:float -> node -> (string * float * float * float option) option
(** For a dfk leaf with [exact_build], the route it draws by
    ({!exact_sampler} when tagged so, else its method) and the prices in
    walk steps of its [calls] draws by each route: exact
    [exact_build + calls · Cost.walk_steps_per_exact_draw], walk
    [calls · walk_steps], and box [calls · box_trials] where
    [box_trials] is known.  The optimizing pass takes the exact route
    when its price is below both others. *)

val op_name : op -> string
(** ["dfk"], ["union"]. *)

(** What the plan is budgeted for. *)
type task =
  | Sample of int  (** draw [n] points *)
  | Volume  (** one volume estimation *)
  | Report of int  (** [n] points and one volume estimation *)

(** {1 Node constructors}

    Each constructor computes the node's inclusive cost estimate from
    its children and the {!Cost} formulas.  The caller passes the
    {e sub-call} accuracy parameters the runtime would use (a union's
    children are built at [ε/3], per Algorithm 1), mirroring how
    {!Scdb_core.Union} threads [Params.third_eps] down. *)

val dfk :
  eps:float ->
  delta:float ->
  dim:int ->
  ?method_:string ->
  ?constraints:int ->
  ?volume_budget:int ->
  unit ->
  node
(** [method_] is ["walk"] (hit-and-run, default), ["grid"] (lattice
    walk) or ["rejection"] (bounding-box rejection).  [constraints] is
    the description size of the tuple (membership-oracle cost;
    informational).  [volume_budget] fixes the per-phase sample count
    (the CLI's practical budget); omitted, the rigorous
    {!Cost.volume_samples_per_phase} sizing applies. *)

val union_ : eps:float -> delta:float -> node list -> node
(** @raise Invalid_argument on an empty list. *)

(** {1 Finalized plans} *)

type t = {
  gamma : float;
  eps : float;
  delta : float;
  task : task;
  root : node;  (** ids assigned in preorder, root = 0 *)
  node_count : int;
  budgets : float array;
      (** per-node {e inclusive} predicted work (in {!work} units) for
          executing [task] once, indexed by node id *)
  total_work : float;  (** [budgets.(0)] *)
}

val finalize : gamma:float -> eps:float -> delta:float -> task:task -> node -> t
(** Assign preorder ids and compute the per-run budget of every node:
    the expected number of work units (walk steps + trials) the subtree
    rooted there spends executing [task], including the one-time child
    volume estimates a union performs before its first draw. *)

val sample_calls : t -> float array
(** Per node, in id order: the generator calls one run of the task
    makes on it, the demand {!finalize} budgets (a leaf's budgeted
    draws). *)

val work_budgets : t -> (int * string * float) array
(** [(id, op_name, predicted_work)] per node, in id order — the feed
    for the progress bus. *)

val iter_nodes : (node -> unit) -> t -> unit
(** Preorder traversal. *)

val find_node : t -> int -> node option

type budget_grant = { g_id : int; g_op : string; g_eps : float; g_delta : float }
(** The (ε,δ) sub-contract granted to one plan node on the volume
    path. *)

val error_budget : t -> budget_grant array
(** Per-node granted accuracy budgets, in id order: the plan's (ε,δ)
    recursively split exactly the way the union combinator threads its
    parameters — a union's children are granted (ε/3, δ/4m) and its
    own acceptance phase (ε/3, δ/4) per Algorithm 1, a leaf keeps the
    grant it is handed.  The per-node
    ledger ([Plan_exec.ledger]) joins these grants with the runtime
    actuals to report consumed-vs-granted slack per node. *)

(** {1 Serialization} *)

val schema : string
(** ["spatialdb-plan/1"]. *)

val to_json : t -> Scdb_json.Json.t
(** The [spatialdb-plan/1] document: parameters, task, total work and
    the node tree with per-node estimates, attributes, budgets and
    rewrite tags; a priced leaf also carries its [weight] route
    (["exact_weight"] or ["dfk"]) with both prices in walk steps. *)

val of_json : Scdb_json.Json.t -> (t, string) result
(** Reader for the same schema (validators and round-trip tests). *)

val to_text_tree : t -> string
(** Indented human-readable rendering. *)
