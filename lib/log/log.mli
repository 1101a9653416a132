(** Leveled, span-correlated structured logging.

    [Telemetry] aggregates and [Trace] attributes cost; this module is
    the narrative channel: discrete events (a pivot cap hit, a
    rejection budget exhausted, a non-convergence verdict) rendered as
    one JSON object per line under the versioned [spatialdb-log/1]
    schema, so a long-running workload can be tailed, shipped and
    machine-parsed.

    Discipline matches [Telemetry]/[Trace]:

    - {b disabled by default}: {!would_log} is one mutable load and a
      comparison, no allocation.  Hot call sites guard with it —
      [if Log.would_log Log.Warn then Log.warn "…" [...]] — so the
      disabled path never builds the field list;
    - {b span-correlated}: every event is stamped with the innermost
      open [Trace] span id ([-1] when none), a strictly increasing
      sequence number and a monotonic-clock timestamp;
    - {b pluggable sinks}: stderr, a file, and a bounded in-memory ring
      buffer (always live while logging is enabled) that the flight
      recorder snapshots as the last-N event tail.

    Event schema:
    [{"schema": "spatialdb-log/1", "seq": …, "ts": …, "level": "…",
      "span": …, "event": "…", "fields": {…}}], one line per event;
    non-finite float fields are clamped ({!Scdb_json.Json.clamp}). *)

type level = Debug | Info | Warn | Error

val level_name : level -> string
(** ["debug"], ["info"], ["warn"], ["error"]. *)

val level_of_string : string -> level option
(** Case-insensitive parse of {!level_name} forms. *)

val enabled : unit -> bool
(** Global switch; initially [false] unless the [SPATIALDB_LOG]
    environment variable is set to a non-empty, non-["0"] value (a
    level name selects that level, anything else means [Info]), in
    which case events also go to stderr. *)

val set_enabled : bool -> unit

val set_level : level -> unit
(** Minimum level recorded (default [Info]). *)

val level : unit -> level

val would_log : level -> bool
(** [true] iff an event at this level would be recorded right now.
    One load and a comparison, no allocation — the guard hot call
    sites use before building a field list. *)

(** {1 Fields} *)

type field

val str : string -> string -> field
val int : string -> int -> field
val float : string -> float -> field
val bool : string -> bool -> field

(** {1 Emission} *)

val emit : level -> string -> field list -> unit
(** [emit level event fields] records one event (no-op below the
    current level or when disabled).  [event] is a dot-separated path
    like the telemetry metric names ([simplex.iteration_cap]). *)

val debug : string -> field list -> unit
val info : string -> field list -> unit
val warn : string -> field list -> unit
val error : string -> field list -> unit

val warn_count : unit -> int
(** Warn-level events recorded since the last {!reset} — the flight
    recorder's anomaly signal. *)

val error_count : unit -> int

(** {1 Sinks} *)

val set_stderr : bool -> unit
(** Mirror events to stderr (default: only when [SPATIALDB_LOG]
    enabled logging at startup). *)

val open_file : string -> unit
(** Append events to the given file (JSON lines); closes any
    previously opened file sink. *)

val close_file : unit -> unit
(** Close the file sink, if any (flushes first). *)

val set_ring_capacity : int -> unit
(** Resize the ambient sink's in-memory ring buffer (default 256
    events); the current contents are dropped. *)

val tail : unit -> string list
(** The ambient sink's ring contents, oldest first: the last-N
    rendered event lines (without trailing newline). *)

val reset : unit -> unit
(** Clear the ambient sink's ring, sequence number and warn/error
    counters.  Output channels, level and the enabled flag are
    untouched. *)

(** {1 Sinks as values (observability contexts)}

    Every event stream — ring, sequence number, warn/error counters
    and output channels — lives in a {e sink}.  The
    pre-context globals survive as the default sink every domain
    starts with; contexts own one each.  A per-sink mutex serializes
    emission, so two domains sharing one sink interleave whole lines,
    never torn ones.  Level policy ({!set_level}/{!set_enabled}) stays
    process-global. *)

module Sink : sig
  type t

  val create : ?ring_capacity:int -> ?stderr:bool -> unit -> t
  (** Fresh sink: ring of [ring_capacity] events (default 256),
      stderr mirroring off unless [stderr] (no file sink). *)

  val tail : t -> string list
  val seq : t -> int
  val warn_count : t -> int
  val error_count : t -> int

  val merge_into : dst:t -> t -> unit
  (** Append [src]'s ring tail into [dst] (oldest first, bounded by
      [dst]'s capacity) and add the event/warn/error counts; [src] is
      unchanged.  A parent-context operation — do not merge two sinks
      into each other concurrently. *)
end

val with_sink : Sink.t -> (unit -> 'a) -> 'a
(** Install a sink as the calling domain's ambient event stream for
    the duration of the thunk (exception-safe; nests).  Same
    domain/thread caveats as [Telemetry.with_registry]. *)

val current_sink : unit -> Sink.t
