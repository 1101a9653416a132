(** Flight records: capture-and-replay envelopes for randomized runs.

    The paper's guarantees are probabilistic, so a (γ,ε,δ)-generator
    that misbehaves can only be debugged by replaying its exact RNG
    stream.  A flight record ([*.flightrec.json], schema
    [spatialdb-flightrec/1]) snapshots everything needed to do that:
    the command and its arguments, the seed, the sample stream the run
    emitted (hex floats, bit-exact), the RNG lineage tree with final
    draw counts, a telemetry snapshot and the last-N structured log
    events.

    This module owns the format — building, writing, parsing and the
    bit-exact stream comparison.  Re-executing a record lives with the
    pipeline code ([Scdb_gis.Flight]), which this library cannot see. *)

type t = {
  command : string;  (** subcommand that produced the record, e.g. ["sample"] *)
  args : (string * string) list;  (** stringly argument map, e.g. [("vars", "x,y")] *)
  seed : int;
  samples : float array list;  (** the emitted sample stream, in order *)
  lineage : Scdb_rng.Rng.Provenance.info list;
  telemetry : Scdb_json.Json.t option;  (** telemetry dump, if collection was on *)
  log_tail : Scdb_json.Json.t list;  (** last-N [spatialdb-log/1] events *)
}

val schema : string
(** ["spatialdb-flightrec/1"]. *)

val arg : t -> string -> string option
(** Lookup in [args]. *)

val to_json : t -> string

val of_json : string -> (t, string) result
(** Parse and validate a record (schema check included). *)

val write : string -> t -> unit
(** Write to a file (the conventional extension is [.flightrec.json]). *)

val read : string -> (t, string) result

val compare_samples :
  recorded:float array list -> replayed:float array list -> (int, string) result
(** Bitwise comparison of two sample streams ([Int64.bits_of_float],
    so NaN payloads and signed zeros count).  [Ok n] with the stream
    length on success; on the first divergence, [Error] carries the
    sample index, coordinate, and both values in hex and decimal. *)
