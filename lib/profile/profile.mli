(** Instruction-level profiler for compiled VM programs.

    Wraps {!Scdb_vm.Vm}'s profiling cells and folds the raw per-pc
    counters through the compiler's symbolization table (pc → plan-node
    id + rewrite tag) into the views the tooling consumes: a hot-pc
    table, a per-opcode histogram and, in the JSON document, a
    per-plan-node rollup with rewrite provenance.  The per-pc rows
    also feed the instruction columns of the per-node ledger
    ([Plan_exec.ledger]) under [--engine vm|vm-opt].

    Two modes:

    - {b Counting} — exact execution counts per pc.  Allocation-free on
      the draw path (one array bump per executed instruction) and always
      cheap; safe to leave on.
    - {b Timing} — additionally buckets monotonic-clock ns per pc,
      taking clock reads only around the expensive opcodes (WALK,
      ENSURE, MEMBER, MEMPOLY).  Overhead is test-gated ≤5% against an
      unprofiled run on the walk-bound union fixture
      ([regress --check]).

    Profiling never touches the rng: a profiled run emits the
    bit-identical sample stream, so flight records recorded under
    [--profile] replay exactly. *)

type mode = Counting | Timing

val mode_name : mode -> string
(** ["counting"] / ["timing"]. *)

type t

val create : ?mode:mode -> Scdb_vm.Vm.t -> t
(** Fresh zeroed cells over a compiled program ([mode] defaults to
    {!Counting}). *)

val mode : t -> mode
val program : t -> Scdb_vm.Vm.t
val draws : t -> int

val sample_one : t -> Rng.t -> Vec.t
(** {!Scdb_vm.Vm.sample_one} with this profile's cells attached. *)

val sample_many : t -> Rng.t -> n:int -> Vec.t list

(** {1 Folded views} *)

type pc_row = {
  pc : int;
  opcode : string;
  node : int;  (** originating plan-node id (symbolization table) *)
  tag : string option;  (** rewrite provenance, if any *)
  count : int;
  ns : float;  (** 0. in counting mode or for untimed opcodes *)
}

val pc_rows : t -> pc_row array
(** One row per instruction (including never-executed ones), ascending
    pc — consumers can rely on full coverage. *)

val hot_pcs : ?limit:int -> t -> pc_row list
(** Executed instructions, hottest first (by ns when timed, else by
    count); [limit] defaults to 10. *)

type opcode_row = { op_name : string; op_count : int; op_ns : float }

val per_opcode : t -> opcode_row list
(** Histogram over opcodes that executed, in opcode order. *)

val total_count : t -> int
val total_ns : t -> float

val engine_name : t -> string
(** ["vm"] or ["vm-opt"]. *)

(** {1 Reports} *)

val text_report : t -> string
(** Human-readable table of the ten hottest pcs and the per-opcode
    histogram; the per-node rows are the ledger's
    ([Plan_exec.ledger ~profile]). *)

val to_json : ?plan:Scdb_plan.Plan.t -> t -> Scdb_json.Json.t
(** The [spatialdb-profile/1] document: full per-pc table, per-opcode
    histogram, per-node rows, and an embedded Chrome trace-event block
    (one complete event per plan node; µs durations in timing mode,
    instruction counts in counting mode). *)
