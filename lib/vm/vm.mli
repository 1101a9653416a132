(** Plan→kernel compiler: flat bytecode programs for the sampling task.

    [compile] lowers a finalized {!Scdb_plan.Plan.t} to one contiguous
    instruction array executed by a small register VM: constraint rows
    of every membership oracle are packed into a shared integer/float
    pool, union dispatch is jump-threaded off the Karp–Luby categorical
    draw, rejection loops become backward jumps on trial counters, and
    convex leaves step chains through the structure-of-arrays walk
    kernel ({!Polytope.Kernel.Batch}) via its raw accessors.  The
    instruction set and operand layout are documented in DESIGN.md.

    [compile] decides nothing: it lowers the plan it is handed, each
    leaf's sampler named by the leaf's method and its weight read
    through the plan's observables ({!Rewrite.observables}).  On the
    same plan and pieces it is a bit-exact mirror of the interpreter:
    it consumes the identical draw sequence and emits the identical
    sample stream, so flight records replay across executors.  The
    {e optimized} engine ([optimize:true]) is the same lowering of the
    plan {!Rewrite.optimize} rewrote (exact leaf draws, box substitution
    and exact leaf weights, tagged on the plan nodes); its stream differs from the
    unrewritten plan's, not from the interpreter's on the rewritten
    plan.

    Volume estimation (the weight prologues that seed union dispatch)
    runs the interpreted estimators through {!mirror} — the VM
    compiles the per-draw hot path, and the interpreter stays the
    differential oracle for it. *)

type t

val compile :
  ?optimize:bool ->
  plan:Scdb_plan.Plan.t ->
  pieces:Convex_obs.prepared array ->
  unit ->
  (t, string) result
(** Lower [plan] over its prepared convex pieces, given in preorder
    leaf order (the order {!Scdb_gis.Plan_exec} constructs them in);
    with [optimize:true], lower [Rewrite.optimize plan pieces]
    instead.  The compiler cross-checks every budget recorded in the
    plan (union trials, walk schedules) against the {!Scdb_plan.Cost}
    formulas it inlines and refuses to compile on mismatch; [Sample]
    and [Report] tasks over dfk and union nodes are supported (the
    report task's volume estimation runs through {!mirror}), and every
    other operator is an [Error]. *)

val optimized : t -> bool
(** Whether [compile] ran the optimizing pass. *)

val plan : t -> Scdb_plan.Plan.t
(** The plan the program lowers: the rewritten one under
    [optimize:true]. *)

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
(** The root of the plan's observables ({!Rewrite.observables}, each
    node Progress-tagged with its plan-node id).  The weight prologues
    estimate through them; [report --engine vm|vm-opt] runs its volume
    estimate here so the result matches the interpreter's contract.
    Leaves tagged [exact_weight] answer volume requests exactly; the
    [vm.lasserre_calls] telemetry counter counts the calls they
    spend. *)

(** {1 Symbolization}

    The compiler records, for every code word, the plan-node id whose
    codegen emitted it.  Rewrite tags live on the plan nodes: an
    instruction of a leaf tagged [rejection_box_substituted] or
    [exact_sampler] carries that tag ({!tag_at}), and {!disassemble}'s
    header names the draw route of every leaf the pass priced for the
    exact sampler with its three prices; [exact_weight] shapes no
    instruction (the weight is spent in the parent's [ensure]), so only
    {!rewrite_tags} and the header, which names the route of every
    priced leaf weight, show it.  {!disassemble} annotates each line with
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
(** The rewrite that shaped the code word at [pc], if any:
    [rejection_box_substituted] on a substituted leaf's code,
    [exact_sampler] on an exact-lattice leaf's. *)

val rewrite_tags : t -> (int * string list) list
(** Per plan-node id, the node's tags in the lowered plan (nodes
    without tags omitted; sorted by id). *)

val disassemble : t -> string
(** Human-readable program listing: piece table, weight/trial slots,
    then one line per instruction annotated with its plan node and
    rewrite tag ([explain --format program]). *)
