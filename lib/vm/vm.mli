(** Plan→kernel compiler: flat bytecode programs for the sampling task.

    [compile] lowers a finalized {!Scdb_plan.Plan.t} to one contiguous
    instruction array executed by a small register VM: constraint rows
    of every membership oracle are packed into a shared integer/float
    pool, union dispatch is jump-threaded off the Karp–Luby categorical
    draw, rejection loops become backward jumps on trial counters, and
    convex leaves step chains through the structure-of-arrays walk
    kernel ({!Polytope.Kernel.Batch}) via its raw accessors.  The
    instruction set and operand layout are documented in DESIGN.md.

    Two engines share the format:

    - the {e strict} engine ([optimize:false], the default) is a
      bit-exact mirror of the {!Observable} interpreter: starting from
      the same rng state and the same {!Convex_obs.prepared} pieces it
      consumes the identical draw sequence and emits the identical
      sample stream, so flight records replay across engines;
    - the {e optimized} engine ([optimize:true]) additionally applies
      cost-based plan rewrites — per-leaf sampler selection
      (rejection-box when {!Scdb_plan.Cost.rejection_box_trials} beats
      the hit-and-run schedule), intersection membership conjunctions
      reordered smallest-bounding-box-first, duplicate union leaves
      sharing one compiled piece and one volume estimate, and exact
      leaf weights (below).  Rewrites preserve the sampling
      distribution but not the rng stream.

    Volume estimation (the weight prologues that seed union/argmin
    dispatch) runs the interpreted estimators through {!mirror} — the
    VM compiles the per-draw hot path, and the interpreter stays the
    differential oracle for it.  Under the optimized engine a DFK leaf
    over one generalized tuple is tagged [exact_weight] when
    {!Scdb_plan.Cost.lasserre_calls} of its tuple, times
    {!Scdb_plan.Cost.walk_steps_per_lasserre_call}, is at most its DFK
    volume work ([phases × samples_per_phase × walk_steps] of its plan
    node).  Its mirror's volume is then the exact Lasserre volume of
    the tuple, computed on first use, once per program, drawing no rng
    (should the exact call raise, the DFK estimate runs instead on the
    same rng).  Union weights, Karp–Luby estimates and
    intersection/difference volumes all read it there.  The bound is a
    proven ceiling on the recursion's calls, so a selected leaf never
    makes more Lasserre calls than the rule priced. *)

type t

val compile :
  ?optimize:bool ->
  plan:Scdb_plan.Plan.t ->
  pieces:Convex_obs.prepared array ->
  unit ->
  (t, string) result
(** Lower [plan] over its prepared convex pieces, given in preorder
    leaf order (the order {!Scdb_gis.Plan_exec} constructs them in).
    The compiler cross-checks every budget recorded in the plan
    (union trials, rejection budgets, walk schedules) against the
    {!Scdb_plan.Cost} formulas it inlines and refuses to compile on
    mismatch; [Sample] and [Report] tasks over
    dfk/guard/union/inter/diff nodes are supported (the report task's
    volume estimation runs through {!mirror}). *)

val optimized : t -> bool
val dim : t -> int

val instruction_count : t -> int
(** Number of decoded instructions (not code-array words). *)

type prof = {
  pcounts : int array;  (** per code word: executions of the instruction based there *)
  ptimes : float array;  (** per code word: accumulated wall ns (timing mode) *)
  ptiming : bool;  (** take clock reads around WALK/ENSURE/MEMBER/MEMPOLY *)
}
(** Profiling cells for {!sample_one}: both arrays must have
    {!code_words} entries.  Counting ([ptiming = false]) is exact and
    allocation-free — one array bump per executed instruction.  Timing
    additionally buckets monotonic-clock ns per pc, but only around the
    expensive opcodes, which is what keeps its overhead within the
    documented ≤5% budget on walk-bound programs (see DESIGN.md §10).
    [Scdb_profile.Profile] owns the ergonomic wrapper. *)

val sample_one : ?prof:prof -> t -> Rng.t -> Vec.t
(** One draw, with the interpreter's retry envelope: up to
    [max 4 ⌈20·ln(1/δ)⌉] root attempts, then
    @raise Observable.Estimation_failed like {!Observable.sample_exn}.
    [prof] fills profiling cells without changing the rng stream. *)

val sample_many : ?prof:prof -> t -> Rng.t -> n:int -> Vec.t list
(** [n] draws in order; mirrors {!Observable.sample_many}. *)

val mirror : t -> Observable.t
(** The interpreted mirror of the compiled plan (each node
    Progress-tagged with its plan-node id).  The weight prologues
    estimate through it; [report --engine vm|vm-opt] runs its volume
    estimate here so the result matches the interpreter's contract.
    Leaves tagged [exact_weight] answer volume requests exactly; the
    [vm.lasserre_calls] telemetry counter counts the calls they
    spend. *)

(** {1 Symbolization}

    The compiler records, for every code word, the plan-node id whose
    codegen emitted it plus a rewrite tag naming the vm-opt rewrite
    that shaped it ([rejection_box_substituted], [shared_union_leaf],
    [reordered_membership]).  The leaf-level [exact_weight] rewrite
    tags no instruction: {!rewrite_tags} lists it under the leaf's id
    and {!disassemble}'s header names the route of every leaf weight.  {!disassemble} annotates each line with
    both; the profiler folds per-pc counts through this table into
    per-node attribution rows. *)

val code_words : t -> int
(** Length of the code array — the domain of {!prof} cells and pcs. *)

val instruction_bases : t -> int array
(** Base pc of every instruction, ascending. *)

val opcode_at : t -> int -> int
(** Opcode int at a base pc. *)

val opcode_name : int -> string
(** Lower-case mnemonic ("emit", "walk", ...); total. *)

val num_opcodes : int

val node_at : t -> int -> int
(** Originating plan-node id of the code word at [pc]. *)

val tag_at : t -> int -> string option
(** Rewrite tag of the code word at [pc], if any. *)

val exact_weight_tag : string
(** ["exact_weight"]. *)

val rewrite_tags : t -> (int * string list) list
(** Per plan-node id, the distinct rewrite tags on its instructions,
    plus [exact_weight] on leaves whose weight is exact (nodes without
    tags omitted; sorted by id). *)

val disassemble : t -> string
(** Human-readable program listing: piece table, weight/trial slots,
    then one line per instruction annotated with its plan node and
    rewrite tag ([explain --format program]). *)
