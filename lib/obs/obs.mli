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
    through [merge], never shared cells. *)

module Ctx : sig
  type t

  val default : t
  (** The process-global stores, as one context. *)

  val create : ?name:string -> ?ring_capacity:int -> unit -> t
  (** Fresh context with empty stores.  [name] (default ["ctx"])
      labels the synthetic span-forest root on merge.  Its log sink
      writes through the ambient sink's output, so its events reach
      the parent's stderr and file as they happen. *)

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

  val run_jobs : ?mode:mode -> name:(int -> string) -> int -> (int -> 'a) -> 'a array
  (** [run_jobs ~name k f] creates [k] contexts named [name i], runs
      [f i] with context [i] installed ({!run}) under [mode] (default
      [Domains]), joins them and then merges every context into
      {!default} in index order.  Results come back in index order.
      Whatever [f] computes from its own argument is therefore the
      same under both modes, and so are the merged counters. *)

  val registry : t -> Scdb_telemetry.Telemetry.Registry.t
  val forest : t -> Scdb_trace.Trace.Forest.t
  val sink : t -> Scdb_log.Log.Sink.t
  val bus : t -> Scdb_progress.Progress.Bus.t
  val prov : t -> Scdb_rng.Rng.Provenance.Table.t
end
