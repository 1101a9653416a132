(** One probe per instrumentation event kind: a sampler reports each
    event with one call, which feeds every store the event reaches
    (the table in DESIGN §8).  Descriptors are made once at module
    initialization, like the counters they register.  With its stores
    off a probe costs one flag load and a branch per store and
    allocates nothing; field builders run only when the store reading
    them is on.  The probes are [[@inline]] for builds that inline
    across modules (no [-opaque]). *)

type field

val int : string -> int -> field

val float : string -> float -> field
(** [%.6g] as a span attribute, a JSON number in a log event. *)

val str : string -> string -> field

(** {1 Step batches: telemetry and progress steps} *)

type walk

val walk : ?chains:string -> ?proposals:string -> ?tally:string -> string -> walk
(** [walk steps]: a walk kernel's step counter and, when named, its
    counters of chains run, moves proposed, and outcome tally (accepted
    moves, or degenerate chords). *)

val steps : walk -> chains:int -> steps:int -> proposals:int -> tally:int -> unit
(** A finished batch of [steps] steps in all; counts without a counter
    are dropped. *)

(** {1 Trials: telemetry and progress trials} *)

type trial

val trial : ?counter:string -> unit -> trial
val trials : trial -> int -> unit

val trials_on : trial -> int array -> int -> unit
(** Accrued to a plan path ({!Scdb_progress.Progress.add_trials_on}). *)

(** {1 Phases: a trace span and its attributes} *)

type 'f phase

val phase : string -> 'f -> 'f phase
(** A span name and the builder of its attributes. *)

val enter : _ phase -> int
(** {!Scdb_trace.Trace.start}: [-1] when tracing is off. *)

val leave1 : ('a -> field list) phase -> int -> 'a -> unit
(** Close the span, with the attributes built from the arguments. *)

val leave2 : ('a -> 'b -> field list) phase -> int -> 'a -> 'b -> unit
val leave3 : ('a -> 'b -> 'c -> field list) phase -> int -> 'a -> 'b -> 'c -> unit

val leave4 :
  ('a -> 'b -> 'c -> 'd -> field list) phase -> int -> 'a -> 'b -> 'c -> 'd -> unit

(** {1 Warnings: a counter and a warn-level log event} *)

type 'f warning

val warning : ?counter:string -> string -> 'f -> 'f warning
(** An event name, the builder of its fields, and the counter that
    ticks each time it fires. *)

val warn2 : ('a -> 'b -> field list) warning -> 'a -> 'b -> unit
val warn3 : ('a -> 'b -> 'c -> field list) warning -> 'a -> 'b -> 'c -> unit
val warn4 : ('a -> 'b -> 'c -> 'd -> field list) warning -> 'a -> 'b -> 'c -> 'd -> unit

val warn5 :
  ('a -> 'b -> 'c -> 'd -> 'e -> field list) warning -> 'a -> 'b -> 'c -> 'd -> 'e -> unit
