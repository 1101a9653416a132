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
      (** ["interp"] (the observable interpreter on the plan as built)
          or ["vm-opt"] (the interpreter on the plan {!Plan_exec.optimize}
          rewrote; same distribution, a stream of its own) *)
}

val gamma : float
(** The CLI's fixed grid parameter (0.05): replay and the cost model
    must reproduce it exactly, so it lives here rather than in bin/. *)

val default_eps : float
(** The CLI's [--eps] default (0.2); {!Eval} prices its plans with it. *)

val default_delta : float
(** The CLI's [--delta] default (0.1); {!Eval} prices its plans with it. *)

(** {2 The front door}

    The one vocabulary and parser every entry point ([sample],
    [report], [explain], [volume], [audit], …) goes through. *)

val methods : string list
(** The per-piece samplers: [walk], [grid], [rejection]. *)

val engines : string list
(** [interp], [vm-opt]. *)

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
    measure ({!Scdb_polytope.Volume_exact.Unbounded}). *)

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
    span; parse and lex errors become [Error] messages, and so does a
    name [vars] repeats ([Error "duplicate variable x in --vars"]),
    which would leave a coordinate unconstrained. *)

val parse_relation : vars:string list -> string -> (Relation.t, string) result
(** {!parse_formula}, quantifier elimination (inside a [qe.eliminate]
    span, skipped for quantifier-free input) and DNF normalisation.
    [Error "no variables given"] when [vars] is empty. *)

(** {2 Engines} *)

type engine = {
  plan : Scdb_plan.Plan.t;  (** the plan that runs: rewritten under ["vm-opt"] *)
  draw : Rng.t -> int -> Vec.t list;  (** [draw rng n]: the next [n] points *)
  observable : Observable.t;  (** the tagged interpreter tree volume estimates run on *)
}
(** A prepared relation bound to one execution engine. *)

val start_engine : engine:string -> eps:float -> delta:float -> Plan_exec.prepared -> engine
(** Bind a prepared relation to an engine from {!engines}: ["vm-opt"]
    runs {!Plan_exec.optimize} first, and both draw through
    {!Plan_exec.observe} at ({!gamma}, [eps], [delta]).  Draws no rng. *)

type outcome = {
  points : Vec.t list;  (** the emitted sample stream, in order *)
  relation : Relation.t;  (** the parsed (and quantifier-eliminated) relation *)
  rng : Rng.t;  (** the root generator, post-run (for follow-on work like [--diag]) *)
  plan : Scdb_plan.Plan.t;
      (** the cost-model plan the run executed (task [Sample n]; the
          rewritten plan under ["vm-opt"], tags included); with
          [~progress:true] its per-node ledger is readable via
          {!Plan_exec.ledger} after the run *)
}

val run : ?progress:bool -> args -> (outcome, string) result
(** Parse, build the plan-tagged observable and draw [n] points from
    the run's one generator, [Rng.create a.seed] (the outcome's [rng]),
    reporting into the process's observability stores; [Error] for a
    negative [n].  With
    [~progress:true] the progress bus is armed with the plan's budgets
    and the stderr progress ticker runs for the duration; it does not
    perturb the RNG stream, so replay is unaffected.  Emits
    [sample.run] / [sample.done] info events. *)

val to_flightrec : args -> outcome -> Scdb_log.Flightrec.t
(** Snapshot a finished run as a [spatialdb-flightrec/1] record
    (the root generator's draw count, telemetry dump if collection is
    on, and the log ring tail). *)

val args_of_flightrec : Scdb_log.Flightrec.t -> (args, string) result
(** Recover the run arguments from a record.  Fails on records written
    by a different subcommand or with missing/malformed arguments (a
    negative [n] is malformed).  A
    record whose engine reads ["vm"] (the retired strict VM, which drew
    the interpreter's stream) recovers as ["interp"]. *)

val replay : Scdb_log.Flightrec.t -> (int, string) result
(** Re-execute a record and compare the replayed stream bit-for-bit
    against the recorded one ({!Scdb_log.Flightrec.compare_samples}),
    then cross-check the generator's draw count against the recorded
    one (when the record has one).  [Ok n] returns the verified stream
    length; any divergence reports the first differing sample,
    coordinate and both values.  The recorded engine decides the plan
    (whether {!Plan_exec.optimize} runs). *)
