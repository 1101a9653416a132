module Probe = Scdb_obs.Probe
module Diag = Scdb_diag.Diag

let probe =
  Probe.walk ~chains:"hit_and_run.samples" ~tally:"hit_and_run.chord_degenerate"
    "hit_and_run.steps"

let batch_phase =
  Probe.phase "hit_and_run.batch" (fun chains steps dim ->
      [ Probe.int "chains" chains; Probe.int "steps" steps; Probe.int "dim" dim ])

let stuck =
  Probe.warning "hit_and_run.stuck" (fun steps dim ->
      [ Probe.int "steps" steps; Probe.int "dim" dim ])

let stuck_batch =
  Probe.warning "hit_and_run.stuck" (fun steps chains dim ->
      [ Probe.int "steps" steps; Probe.int "chains" chains; Probe.int "dim" dim ])

type chord = Vec.t -> Vec.t -> (float * float) option

let polytope_chord poly x dir = Polytope.line_intersection poly x dir

let ball_chord ~centre ~radius x dir =
  (* ||x + t·dir − c||² = r²: quadratic in t. *)
  let delta = Vec.sub x centre in
  let a = Vec.norm2 dir in
  let b = 2.0 *. Vec.dot delta dir in
  let c = Vec.norm2 delta -. (radius *. radius) in
  let disc = (b *. b) -. (4.0 *. a *. c) in
  if disc < 0.0 || a = 0.0 then None
  else begin
    let s = sqrt disc in
    Some (((-.b) -. s) /. (2.0 *. a), ((-.b) +. s) /. (2.0 *. a))
  end

let intersect_chords chords x dir =
  let rec go lo hi = function
    | [] -> if lo > hi then None else Some (lo, hi)
    | c :: rest -> (
        match c x dir with
        | None -> None
        | Some (l, h) -> go (Float.max lo l) (Float.min hi h) rest)
  in
  go neg_infinity infinity chords

(* Degenerate-chord bookkeeping: the local run counter and the monitor
   rejection always move together; the count reaches the step-batch
   probe once per sampler invocation, off the hot path. *)
let[@inline] note_degenerate monitor degenerate =
  incr degenerate;
  match monitor with Some m -> Diag.Monitor.reject m | None -> ()

(* One chain's batch.  Every chord degenerate means the walker never
   moved: the start was outside the body or the polytope is
   (numerically) lower-dimensional. *)
let report ~steps ~dim ~degenerate =
  Probe.steps probe ~chains:1 ~steps ~proposals:0 ~tally:degenerate;
  if steps >= 16 && degenerate = steps then Probe.warn2 stuck steps dim

let sample ?monitor rng ~chord ~start ~steps =
  let dim = Vec.dim start in
  let current = ref (Vec.copy start) in
  let degenerate = ref 0 in
  (* One direction buffer for the run: the chord reads it and [axpy]
     copies, so nothing keeps it past its step. *)
  let dir = Vec.create dim in
  for _ = 1 to steps do
    Rng.unit_vector_into_fast rng dir;
    (match chord !current dir with
    | None ->
        (* numerically outside; keep position *)
        note_degenerate monitor degenerate
    | Some (lo, hi) ->
        if hi > lo && Float.is_finite lo && Float.is_finite hi then begin
          current := Vec.axpy (Rng.uniform rng lo hi) dir !current;
          match monitor with Some m -> Diag.Monitor.accept m | None -> ()
        end
        else note_degenerate monitor degenerate);
    match monitor with Some m -> Diag.Monitor.record m !current | None -> ()
  done;
  report ~steps ~dim ~degenerate:!degenerate;
  !current

module Batch = Polytope.Kernel.Batch

(* The volume estimator's phase walk: the kernel loop plus this
   module's per-call accounting. *)
let phase_walk rng b ~radius ~steps =
  let degenerate = Batch.hit_and_run_in_ball b rng ~radius ~steps in
  report ~steps ~dim:(Batch.dim b) ~degenerate

(* ------------------------------------------------------------------ *)
(* Batched multi-chain sampler                                          *)
(* ------------------------------------------------------------------ *)

(* K chains advance in lockstep through [Polytope.Kernel.Batch]: per
   step, all K directions are drawn and staged, one shared matrix pass
   computes every chain's chord (one plain row loop at K = 1), then
   each chain lands uniformly on its own chord.  The cached products
   replace the O(m·d) chord recomputation of [sample] by one O(m·d)
   pass for A·dir plus an O(m) cache update, with no per-step
   allocation.  Chain [c] consumes only [rngs.(c)], and the per-chain
   draw order (ziggurat direction fill, then a uniform iff the chord
   accepted) matches [sample] exactly — so every chain follows the
   generic sampler's trajectory up to rounding, and is bit-identical to
   a K = 1 run from the same rng and start.  Accounting (telemetry,
   progress, trace, the stuck warning) is per batch invocation, never
   per step or chain. *)
let sample_polytope_batch ?monitors rngs poly ~starts ~steps =
  let k = Array.length rngs in
  if k = 0 then invalid_arg "Hit_and_run.sample_polytope_batch: no chains";
  if Array.length starts <> k then
    invalid_arg "Hit_and_run.sample_polytope_batch: starts/rngs length mismatch";
  let mons = match monitors with Some ms -> ms | None -> [||] in
  if Array.length mons <> 0 && Array.length mons <> k then
    invalid_arg "Hit_and_run.sample_polytope_batch: monitors/rngs length mismatch";
  let sp = Probe.enter batch_phase in
  let d = Polytope.dim poly in
  let b = Batch.make poly starts in
  let dirs = Batch.directions b in
  let lows = Batch.lows b and highs = Batch.highs b in
  let monitored = Array.length mons > 0 in
  let degenerate = ref 0 in
  for _ = 1 to steps do
    (* The per-chain direction draw is the hottest call site; the
       slice fill lands straight in the chain-major direction block. *)
    for c = 0 to k - 1 do
      Rng.unit_vector_slice_fast (Array.unsafe_get rngs c) dirs (c * d) d
    done;
    Batch.chord_all b;
    for c = 0 to k - 1 do
      let lo = Array.unsafe_get lows c and hi = Array.unsafe_get highs c in
      if hi > lo && Float.is_finite lo && Float.is_finite hi then begin
        Batch.advance b c (Rng.uniform (Array.unsafe_get rngs c) lo hi);
        if monitored then Diag.Monitor.accept mons.(c)
      end
      else begin
        incr degenerate;
        if monitored then Diag.Monitor.reject mons.(c)
      end;
      if monitored then Diag.Monitor.record_off mons.(c) (Batch.positions b) (c * d)
    done
  done;
  if steps >= 16 && !degenerate = k * steps then Probe.warn3 stuck_batch steps k d;
  Probe.leave3 batch_phase sp k steps d;
  Probe.steps probe ~chains:k ~steps:(k * steps) ~proposals:0 ~tally:!degenerate;
  Array.init k (fun c -> Batch.pos b c)

(* Shared with the static cost model: see [Scdb_plan.Cost]. *)
let default_steps ~dim = Scdb_plan.Cost.hit_and_run_steps ~dim
