(** Self-contained run reports ([spatialdb report]).

    Runs a full query pipeline — parse, normalize, build generators,
    sample, estimate volume, and a multi-chain convergence check
    ({!Scdb_core.Diag_run}) — with tracing and telemetry enabled, and
    packages everything into one JSON document (schema
    [spatialdb-report/4]) embedding:

    - the CLI-equivalent arguments (vars, formula, seed, ε, δ, …);
    - the drawn samples and the volume estimate;
    - the cost-model plan ([spatialdb-plan/1], task [Report n]) and two
      views of its per-node ledger ({!Plan_exec.ledger}): the
      predicted-vs-actual cost attribution (absolute work in steps +
      trials, and the actual/predicted ratio — [null] for nodes that
      never ran) and the (ε,δ) error budget;
    - per-chain ESS, split-R̂ per coordinate and a convergence verdict;
    - the telemetry snapshot ([spatialdb-telemetry/2]);
    - the full Chrome trace (loadable in Perfetto as-is).

    The progress bus is armed around the planned work (sampling and the
    volume estimate); the diagnostics run outside it so they cannot
    pollute the ledger.  The previous telemetry/trace enabled
    states are restored on exit; the recorded spans and counters
    reflect only this run. *)

type t = {
  json : string;  (** the [spatialdb-report/4] document *)
  chrome_trace : string;  (** raw Chrome trace-event JSON *)
  text_tree : string;  (** indented text rendering of the spans *)
}

val generate :
  ?eps:float ->
  ?delta:float ->
  ?samples:int ->
  ?chains:int ->
  ?samples_per_chain:int ->
  ?progress:bool ->
  ?engine:string ->
  vars:string list ->
  formula:string ->
  seed:int ->
  unit ->
  (t, string) result
(** Defaults: [eps = 0.2], [delta = 0.1], [samples = 10],
    [chains = Diag_run.default_chains],
    [samples_per_chain = Diag_run.default_samples_per_chain].
    [progress] additionally runs the live stderr ticker.
    [engine] is ["interp"] (default) or ["vm-opt"], whose ledger rows
    carry the rewrite tags.
    [Error reason] on a negative [samples], parse errors or
    empty/unbounded relations. *)
