(** Scoped observability contexts with merge semantics.

    A {!Ctx.t} bundles the five per-run observability stores —
    telemetry registry, trace span forest, log sink, progress bus and
    RNG lineage table — into one value.  A run installs its context
    ({!Ctx.run}), the kernels record into it through the unchanged
    ambient APIs, and the parent folds the results back with
    {!Ctx.merge}.  The pre-context process globals survive as
    {!Ctx.default}: code that never creates a context behaves exactly
    as before, bit for bit.

    Ownership contract: each store is single-writer — at most one
    domain has a context installed at a time, installs/merges happen
    from the owning (parent) side, and cross-context aggregation goes
    through [merge], never shared cells.  The {!Status} readers use
    only explicit-instance accessors, so a ticker thread can watch any
    set of live contexts without installing them. *)

module Ctx : sig
  type t

  val default : t
  (** The process-global stores, as one context.  Always first in
      {!all}. *)

  val create :
    ?name:string ->
    ?ring_capacity:int ->
    ?span_limit:int ->
    ?prov_cap:int ->
    unit ->
    t
  (** Fresh context with empty stores, registered in the process
      directory.  [name] (default ["ctx"]) labels status rows and the
      synthetic span-forest root on merge.  Its log sink writes
      through the ambient sink's output, so its events reach the
      parent's stderr and file as they happen. *)

  val name : t -> string

  val elapsed : t -> float
  (** Seconds from creation to {!mark_done} (or to now while live). *)

  val run : t -> (unit -> 'a) -> 'a
  (** Install all five stores as the calling domain's ambient
      observability state for the duration of the thunk
      (exception-safe; nests).  Same domain/thread caveats as
      [Telemetry.with_registry]: a [Thread] shares its domain's
      ambient state, a spawned [Domain] starts at the defaults. *)

  val merge : into:t -> t -> unit
  (** [merge ~into child] folds [child]'s stores into [into]:
      counters/histograms add (merged quantiles are exactly those of
      the concatenated observations), [child]'s span forest is spliced
      under a synthetic root named after it, log tails append, progress
      accruals and budgets add, lineage nodes re-root.  [child] is
      unchanged.  A parent-context operation — never merge two
      contexts into each other concurrently. *)

  type mode =
    | Seq  (** one job after another, on the calling domain *)
    | Domains  (** one domain per job, concurrently *)

  val run_jobs :
    ?mode:mode ->
    ?joined:(unit -> unit) ->
    name:(int -> string) ->
    int ->
    (int -> t -> 'a) ->
    'a array
  (** [run_jobs ~name k f] creates [k] contexts named [name i], runs
      [f i ctx] with context [i] installed ({!run}) under [mode]
      (default [Domains]), marks each done, joins them, calls [joined]
      and then merges every context into {!default} in index order.
      Results come back in index order.  Whatever [f] computes from
      its own arguments is therefore the same under both modes, and
      so are the merged counters. *)

  val mark_done : t -> unit
  (** Freeze {!elapsed} and flag the context done in status rows. *)

  val set_ess : t -> float -> unit
  (** Record an effective-sample-size estimate for status rows (the
      sampler computes it from its collected points; contexts don't). *)

  val ess : t -> float option

  val all : unit -> t list
  (** Every context created since process start (or the last
      {!clear_directory}), oldest first, {!default} included. *)

  val registry : t -> Scdb_telemetry.Telemetry.Registry.t
  val forest : t -> Scdb_trace.Trace.Forest.t
  val sink : t -> Scdb_log.Log.Sink.t
  val bus : t -> Scdb_progress.Progress.Bus.t
  val prov : t -> Scdb_rng.Rng.Provenance.Table.t

  val clear_directory : unit -> unit
  (** Tests only: forget every context but {!default}. *)
end

module Status : sig
  type row = {
    r_name : string;
    r_done : bool;
    r_elapsed : float;
    r_draws : float;
    r_rate : float;  (** draws/sec since the previous snapshot *)
    r_accepted : int;
    r_attempts : int;
    r_acceptance : float option;
    r_work : float;
    r_budget : float;
    r_burn : float option;  (** actual work / planned budget *)
    r_ess : float option;
    r_warns : int;
    r_errors : int;
    r_spans : int;
  }

  val snapshot : unit -> row list
  (** One row per directory context, in creation order.  Rates come
      from deltas against the previous snapshot (the first snapshot
      averages over the context's lifetime), so run exactly one status
      reader at a time. *)

  val to_json : ?ts:float -> row list -> string
  (** [spatialdb-status/1] document (one line, trailing newline).
      Non-finite numbers are clamped ({!Scdb_json.Json.clamp}). *)

  val of_json : Scdb_json.Json.t -> (row list, string) result
  (** Read a [spatialdb-status/1] document.  Every row field must be
      present ([acceptance], [budget_burn] and [ess] may be [null]),
      numbers finite and non-negative, counts integers, names
      non-empty, and there must be at least one context; the error
      names the offending path. *)

  val render : row list -> string
  (** Human table, one row per context. *)

  val write : string -> row list -> unit
  (** Atomic publish: write to [path ^ ".tmp"], then rename over
      [path], so a concurrent reader never sees a torn file. *)

  val start_ticker :
    ?interval:float -> ?out:string -> ?to_stderr:bool -> unit -> unit
  (** Background thread refreshing the status every [interval] seconds
      (default 0.5): {!write} to [out] if given, a compact live line
      to stderr if [to_stderr].  Reads contexts only through
      explicit-instance accessors, so it never perturbs ambient
      state. *)

  val stop_ticker : ?out:string -> ?to_stderr:bool -> unit -> unit
  (** Stop the ticker and publish one final snapshot (so [out]
      reflects the finished run). *)
end
