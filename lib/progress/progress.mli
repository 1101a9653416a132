(** Execution progress against a plan's predicted budgets.

    A process-global bus the instrumented kernels feed: the executor
    pushes the current plan-node id with {!with_node}, the samplers
    report walk steps and rejection/acceptance trials as they spend
    them, and every unit is accrued to {e all} nodes on the stack —
    actuals are inclusive, exactly like the per-node budgets
    {!Scdb_plan.Plan.finalize} computes, so predicted and actual are
    directly comparable.

    Three consumers sit on top:

    - a {b watchdog} that fires once per node — a [plan.budget_overrun]
      warn-level log event and a [progress.overruns] telemetry tick —
      when the node's accrued work exceeds its predicted budget by a
      configurable factor;
    - a {b ticker} thread rendering a refreshing one-line percent/ETA
      display to stderr ([--progress]);
    - post-run {b attribution}: {!rows} is the actual column of the
      predicted-vs-actual table the report embeds.

    Disabled by default; every accrual on the disabled path is one load
    and a branch.  Accrual state lives in a {e bus}; each observability
    context owns one, the pre-context global bus survives as the
    default every domain starts with, and a bus is single-writer (the
    domain that armed it).  The ticker reads concurrently without
    locks, which is benign for monotone float cells. *)

val active : unit -> bool
(** One atomic load ([true] iff {e some} bus in the process is armed)
    — the guard for hot call sites; accruals re-check that the calling
    domain's own bus is armed. *)

val start : ?overrun_factor:float -> rows:(int * string * float) array -> unit -> unit
(** Arm the bus for a run: [rows] is [(id, label, predicted_work)] per
    plan node (from [Plan.budget_rows]), ids dense from 0.  Resets all
    actuals and the overrun state.  [overrun_factor] (default [4.0])
    sets the watchdog threshold: a node overruns when
    [actual > factor · predicted] (nodes with zero predicted budget are
    never flagged). *)

val stop : unit -> unit
(** Disarm (stops the ticker too).  Accrued actuals remain readable
    until the next {!start}. *)

val with_node : int -> (unit -> 'a) -> 'a
(** Run a thunk with node [id] pushed on the attribution stack
    (exception-safe).  No-op wrapper when the bus is inactive. *)

val enter_path : int array -> unit
(** Push a whole ancestor path (ids in any order — accrual is a set
    walk) onto the attribution stack without a closure.  Callers that
    cannot afford {!with_node}'s [Fun.protect] (the VM's inner loop)
    pair this with {!exit_path}; the array must be the same one.  No-op
    when the bus is inactive. *)

val exit_path : int array -> unit
(** Pop [Array.length path] entries pushed by {!enter_path}. *)

val add_steps : int -> unit
(** Accrue walk steps to every node on the stack (to the root when the
    stack is empty).  Ids outside the armed rows are skipped. *)

val add_trials : int -> unit
(** Accrue rejection/acceptance trials likewise. *)

val add_trials_on : int array -> int -> unit
(** [enter_path p; add_trials n; exit_path p] — accrue to the path's
    nodes {e and} whatever is already stacked beneath it. *)

(** {1 Snapshots} *)

type row = {
  id : int;
  label : string;
  budget : float;  (** predicted inclusive work *)
  steps : float;
  trials : float;
  overrun : bool;  (** watchdog fired for this node *)
}

val row_work : row -> float
(** [steps + trials] — same metric as [Plan.work]. *)

val rows : unit -> row array
(** Snapshot in id order; [[||]] when never started. *)

val actual_work : int -> float
(** Accrued work of one node ([0.] out of range or inactive). *)

val overrun_count : unit -> int
(** Nodes the watchdog has flagged since {!start}. *)

val eta : unit -> float option
(** Remaining-time estimate [elapsed·(1−f)/f] from the root's work
    fraction [f] (accrued over predicted work); [None] before any work
    lands. *)

val render_line : unit -> string
(** The ticker's one-line rendering: overall percent, work counts, ETA
    and the per-node percents (truncated past 6 nodes). *)

(** {1 Ticker} *)

val start_ticker : ?interval:float -> unit -> unit
(** Spawn the stderr ticker thread (default 0.5 s refresh); idempotent
    while one is running. *)

val stop_ticker : unit -> unit
(** Stop it and terminate the status line with a newline. *)

(** {1 Buses as values (observability contexts)} *)

module Bus : sig
  type t

  val create : unit -> t

  val rows : t -> row array
  val trials : t -> float
  val steps : t -> float

  val merge_into : dst:t -> t -> unit
  (** Elementwise add of every accrual column {e and} the budgets (two
      runs over the same plan predict twice the work); [warned] or-ed,
      earliest start kept.  If [dst] never armed a run it adopts a copy
      of [src]'s state.  [src] is unchanged. *)
end

val with_bus : Bus.t -> (unit -> 'a) -> 'a
(** Install a bus as the calling domain's ambient accrual target for
    the duration of the thunk (exception-safe; nests).  Same
    domain/thread caveats as [Telemetry.with_registry]. *)

val current_bus : unit -> Bus.t
