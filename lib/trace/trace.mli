(** Hierarchical span tracing for per-query cost attribution.

    [Telemetry] aggregates per-process; this module answers "which phase
    of {e this} query was slow".  Spans nest dynamically — whatever is
    opened while a span is open becomes its child — carry string
    attributes (dimension, γ, ε, …) and can snapshot telemetry counters
    at open and attach the deltas at close, so a [union.sample] span
    shows exactly how many trials it burned.

    Discipline matches [Telemetry]: disabled by default, and the
    disabled path of {!span}/{!start} is one mutable load and a branch
    with no allocation, no clock read.  Timestamps come from the
    monotonic clock ({!Scdb_telemetry.Telemetry.Clock}).

    Export targets: Chrome trace-event JSON ({!to_chrome_json}, loads
    in [chrome://tracing] and Perfetto) and a compact indented text
    tree ({!to_text_tree}). *)

val enabled : unit -> bool
(** Global switch; initially [false] unless the [SPATIALDB_TRACE]
    environment variable is set to a non-empty, non-["0"] value. *)

val set_enabled : bool -> unit

val reset : unit -> unit
(** Drop the ambient forest's recorded spans and restart its clock
    origin. *)

val set_span_limit : int -> unit
(** Soft cap on the ambient forest's recorded spans (default 200000):
    once reached, new spans run their body unrecorded, so tight
    sampling loops cannot make the trace unbounded.  [reset] does not
    change the limit. *)



val span : ?attrs:(string * string) list -> ?counters:string list -> string -> (unit -> 'a) -> 'a
(** [span name f] runs [f] inside a span.  The span is closed even when
    [f] raises (the exception is recorded as an [error] attribute and
    re-raised with its backtrace).  [counters] names telemetry counters
    whose deltas over the span are attached as attributes at close. *)

val start : string -> int
(** Closure-free open for hot call sites: returns the span id, or [-1]
    when tracing is disabled (no allocation).  Pair with {!finish}. *)

val finish : ?attrs:(string * string) list -> int -> unit
(** Close the span returned by {!start}, first appending [attrs] to
    it.  Children left open by a non-local exit are closed with the
    same end time; closing [-1] or an already-closed id is a no-op. *)

val current_id : unit -> int
(** Id of the innermost open span, or [-1] when none is open (or
    tracing is disabled).  One load and a match, no allocation — the
    structured logger stamps every event with it. *)

val add_attr : string -> string -> unit
(** Attach an attribute to the innermost open span (no-op when tracing
    is disabled or no span is open). *)

val add_attr_int : string -> int -> unit
val add_attr_float : string -> float -> unit

(** {1 Export} *)

type view = {
  v_id : int;
  v_parent : int;  (** [-1] for root spans *)
  v_depth : int;
  v_name : string;
  v_ts_us : float;  (** microseconds since the trace origin, ≥ 0 *)
  v_dur_us : float;  (** ≥ 0; still-open spans report elapsed-so-far *)
  v_attrs : (string * string) list;
}

(** {1 Forests (observability contexts)}

    Spans land in a {e forest} — the span store plus the open-span
    stack, the per-forest monotonic epoch (stamped at creation and by
    {!reset}, so a context born late in a long-lived process exports
    timestamps relative to its own birth) and the span cap.  The
    pre-context global store survives as the default forest every
    domain starts with.  Forests are single-writer: the one domain
    that currently has the forest installed. *)

module Forest : sig
  type t

  val create : unit -> t
  (** Fresh empty forest; its epoch is stamped now. *)

  val epoch : t -> float

  val merge_into : ?name:string -> dst:t -> t -> unit
  (** Splice [src]'s spans into [dst] under a fresh synthetic root
      span (named [name], default ["merged"], carrying a ["spans"]
      attribute): ids shift past [dst]'s id space, [src]'s roots
      re-parent onto the synthetic root, depths grow by one.  Span
      timestamps are absolute monotonic seconds, so they re-base onto
      [dst]'s epoch exactly.  [src] is unchanged; merging a forest
      into itself is a no-op. *)

  val spans : t -> view list
  (** Like {!val:spans} but for an explicit forest (timestamps relative
      to {e its} epoch). *)
end

val with_forest : Forest.t -> (unit -> 'a) -> 'a
(** Install a forest as the calling domain's ambient span store for the
    duration of the thunk (exception-safe; nests).  Same domain/thread
    caveats as [Telemetry.with_registry]. *)

val current_forest : unit -> Forest.t

val spans : unit -> view list
(** All recorded spans in creation order (so [v_ts_us] is
    non-decreasing). *)

val count : unit -> int

val to_chrome_json : unit -> Scdb_json.Json.t
(** Chrome trace-event JSON: [{"displayTimeUnit": "ms", "traceEvents":
    [{"name": …, "ph": "X", "ts": …, "dur": …, "args": {…}}, …]}]. *)

val to_text_tree : unit -> string
(** Indented per-span text rendering with durations in milliseconds. *)
