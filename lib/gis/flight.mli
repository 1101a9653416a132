(** Flight-recorded sampling runs: one code path for the CLI, the
    recorder and the replayer.

    {!Scdb_log.Flightrec} owns the record {e format}; this module owns
    its {e semantics} — it can see the parser, the evaluator and the
    observable pipeline, so it is the layer that turns a record back
    into an execution.  [spatialdb sample] runs through {!run} whether
    or not a record is being captured, which is what makes replay
    meaningful: the recorded stream and the replayed stream come from
    literally the same code. *)

type args = {
  vars : string list;  (** free variables, fixing dimension and coordinate order *)
  formula : string;  (** FO+LIN source text *)
  n : int;  (** points to draw *)
  seed : int;
  eps : float;
  delta : float;
  method_ : string;  (** ["walk"], ["grid"] or ["rejection"] *)
  engine : string;
      (** ["interp"] (the observable interpreter), ["vm"] (the compiled
          engine — same rng stream as the interpreter) or ["vm-opt"]
          (the VM on the plan {!Plan_exec.optimize} rewrote; same
          distribution, a different stream, which replays on every
          executor) *)
}

val gamma : float
(** The CLI's fixed grid parameter (0.05): replay and the cost model
    must reproduce it exactly, so it lives here rather than in bin/. *)

(** {2 The front door}

    The one vocabulary and parser every entry point ([sample],
    [report], [explain], [volume], [audit], …) goes through. *)

val methods : string list
(** The per-piece samplers: [walk], [grid], [rejection]. *)

val engines : string list
(** [interp], [vm], [vm-opt]. *)

val config_of_method : string -> (Convex_obs.config, string) result
(** {!Convex_obs.practical_config} with the named sampler;
    [Error "unknown method …"] outside {!methods}. *)

val check_engine : string -> (string, string) result
(** [Error "unknown engine …"] outside {!engines}. *)

val split_vars : string -> string list
(** The comma-separated [--vars] form: ["x, y,z"] → [["x"; "y"; "z"]]. *)

val empty_relation : string
(** The error every entry point reports when no tuple survives
    preparation. *)

val unbounded_relation : string
(** The error every entry point reports for a relation of infinite
    measure ({!Convex_obs.Unbounded}). *)

val prepare :
  ?config:Convex_obs.config ->
  gamma:float ->
  eps:float ->
  delta:float ->
  task:Scdb_plan.Plan.task ->
  Rng.t ->
  Relation.t ->
  (Plan_exec.prepared, string) result
(** {!Plan_exec.prepare} with its refusals as the entry points' errors:
    {!empty_relation} when no tuple survives, {!unbounded_relation}
    when a tuple is full-dimensional and unbounded. *)

val parse_formula : vars:string list -> string -> (Formula.t, string) result
(** Parse FO+LIN source over [vars] inside a [formula.parse] trace
    span; parse and lex errors become [Error] messages. *)

val parse_relation : vars:string list -> string -> (Relation.t, string) result
(** {!parse_formula}, quantifier elimination (inside a [qe.eliminate]
    span, skipped for quantifier-free input) and DNF normalisation.
    [Error "no variables given"] when [vars] is empty. *)

(** {2 Engines} *)

type engine = {
  plan : Scdb_plan.Plan.t;  (** the plan that runs: rewritten under ["vm-opt"] *)
  draw : Rng.t -> int -> Vec.t list;  (** [draw rng n]: the next [n] points *)
  observable : Observable.t;
      (** what volume estimates run on: the tagged interpreter tree, or
          the compiled program's interpreted mirror *)
  program : Scdb_vm.Vm.t option;  (** the compiled program, under [vm] and [vm-opt] *)
  profile : Scdb_profile.Profile.t option;  (** the profiler [draw] runs under, if any *)
}
(** A prepared relation bound to one execution engine. *)

val start_engine :
  ?profile_mode:Scdb_profile.Profile.mode ->
  ?executor:string ->
  engine:string ->
  eps:float ->
  delta:float ->
  Plan_exec.prepared ->
  (engine, string) result
(** Bind a prepared relation to an engine from {!engines}.  [engine]
    decides the plan: ["vm-opt"] runs {!Plan_exec.optimize} first.
    [executor] (default [engine]) decides what runs it: ["interp"]
    draws through {!Plan_exec.observe}, ["vm"] and ["vm-opt"] through
    {!Plan_exec.compile}, under an instruction profiler when
    [profile_mode] is given (ignored under ["interp"]).  On one plan
    every executor draws the same stream.  Draws no rng.  [Error] when
    the plan does not compile. *)

type outcome = {
  points : Vec.t list;  (** the emitted sample stream, in order *)
  relation : Relation.t;  (** the parsed (and quantifier-eliminated) relation *)
  rng : Rng.t;  (** the root generator, post-run (for follow-on work like [--diag]) *)
  plan : Scdb_plan.Plan.t;
      (** the cost-model plan the run executed (task [Sample n]; the
          rewritten plan under ["vm-opt"], tags included); with
          [~progress:true] its predicted-vs-actual attribution is
          readable via {!Plan_exec.attribution} after the run *)
  program : Scdb_vm.Vm.t option;  (** the compiled program, under a VM executor *)
  profile : Scdb_profile.Profile.t option;  (** filled when [profile_mode] was given *)
}

val run :
  ?track:bool ->
  ?progress:bool ->
  ?ticker:bool ->
  ?overrun_factor:float ->
  ?profile_mode:Scdb_profile.Profile.mode ->
  ?executor:string ->
  args ->
  (outcome, string) result
(** Parse, build the plan-tagged observable, draw [n] points into the
    ambient observability stores (a caller that wants a context
    installs it, e.g. with [Obs.Ctx.run_jobs]).  With [~track:true]
    the RNG provenance registry is reset and enabled first, so the
    lineage tree in {!to_flightrec} is complete and its ids are
    reproducible.  With
    [~progress:true] the (ambient) progress bus is armed with the
    plan's budgets ([overrun_factor] tunes the watchdog);
    [~ticker:true] additionally runs the stderr progress ticker for
    the duration — kept separate so concurrent contexted jobs can arm
    their buses without fighting over the terminal.  [executor] picks
    what runs the plan [a.engine] chose (see {!start_engine}).  [profile_mode] (compiled executors only —
    an [Error] under ["interp"]) attaches an instruction profiler and arms the
    progress bus ticker-free, so the outcome carries both the profile
    and readable attribution.  None of these options perturb the RNG
    stream, so replay is unaffected.  Emits [sample.run] /
    [sample.done] info events. *)

val to_flightrec : args -> outcome -> Scdb_log.Flightrec.t
(** Snapshot a finished run as a [spatialdb-flightrec/1] record
    (current provenance registry, telemetry dump if collection is on,
    and the log ring tail). *)

val args_of_flightrec : Scdb_log.Flightrec.t -> (args, string) result
(** Recover the run arguments from a record.  Fails on records written
    by a different subcommand or with missing/malformed arguments. *)

val replay : ?engine:string -> Scdb_log.Flightrec.t -> (int, string) result
(** Re-execute a record with provenance tracking and compare the
    replayed stream bit-for-bit against the recorded one
    ({!Scdb_log.Flightrec.compare_samples}), then cross-check total
    RNG draw counts against the recorded lineage.  [Ok n] returns the
    verified stream length; any divergence reports the first differing
    sample, coordinate and both values.  The recorded engine decides
    the plan (whether {!Plan_exec.optimize} runs); [engine] only picks
    the executor — replaying an interpreter-recorded flight with
    [~engine:"vm"], or a ["vm-opt"] record with [~engine:"interp"], is
    the differential test that the compiled engine is a bit-exact
    mirror of the interpreter. *)
