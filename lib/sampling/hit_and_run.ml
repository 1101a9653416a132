module Tel = Scdb_telemetry.Telemetry
module Progress = Scdb_progress.Progress
module Trace = Scdb_trace.Trace
module Diag = Scdb_diag.Diag
module Log = Scdb_log.Log

let tel_steps = Tel.Counter.make "hit_and_run.steps"
let tel_samples = Tel.Counter.make "hit_and_run.samples"
let tel_degenerate = Tel.Counter.make "hit_and_run.chord_degenerate"

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
   rejection always move together; the telemetry counter is summed into
   [tel_degenerate] once per sampler invocation, off the hot path. *)
let[@inline] note_degenerate monitor degenerate =
  incr degenerate;
  match monitor with Some m -> Diag.Monitor.reject m | None -> ()

(* Every chord degenerate means the walker never moved: the start was
   outside the body or the polytope is (numerically) lower-dimensional. *)
let warn_stuck ~steps ~dim ~degenerate =
  if steps >= 16 && degenerate = steps && Log.would_log Log.Warn then
    Log.warn "hit_and_run.stuck" [ Log.int "steps" steps; Log.int "dim" dim ]

let sample ?monitor rng ~chord ~start ~steps =
  Tel.Counter.incr tel_samples;
  Tel.Counter.add tel_steps steps;
  Progress.add_steps steps;
  let dim = Vec.dim start in
  let current = ref (Vec.copy start) in
  let degenerate = ref 0 in
  for _ = 1 to steps do
    let dir = Rng.unit_vector rng dim in
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
  Tel.Counter.add tel_degenerate !degenerate;
  warn_stuck ~steps ~dim ~degenerate:!degenerate;
  !current

(* Chord of [poly ∩ B(0, radius)] into [range]: the value of
   [intersect_chords [polytope_chord poly; ball_chord ~centre:0 ~radius]]
   with the same floating-point operations in the same order.  The
   [x − 0] centring is exact, so [x] stands in for [delta]; the three
   dot products accumulate index-ascending from [0.0] like [Vec.dot];
   [intersect_chords]' identity fold-in of the polytope chord
   ([Float.max neg_infinity tmin], [Float.min infinity tmax]) returns
   its operand's bits and is elided. *)
let ball_polytope_chord_into poly ~radius x dir range =
  Polytope.line_intersection_into poly x dir range
  && begin
       let aa = ref 0.0 and xd = ref 0.0 and xx = ref 0.0 in
       for i = 0 to Array.length dir - 1 do
         let di = Array.unsafe_get dir i and xi = Array.unsafe_get x i in
         aa := !aa +. (di *. di);
         xd := !xd +. (xi *. di);
         xx := !xx +. (xi *. xi)
       done;
       let a = !aa in
       let b = 2.0 *. !xd in
       let c = !xx -. (radius *. radius) in
       let disc = (b *. b) -. (4.0 *. a *. c) in
       if disc < 0.0 || a = 0.0 then false
       else begin
         let s = sqrt disc in
         let lo = Float.max (Array.unsafe_get range 0) (((-.b) -. s) /. (2.0 *. a))
         and hi = Float.min (Array.unsafe_get range 1) (((-.b) +. s) /. (2.0 *. a)) in
         Array.unsafe_set range 0 lo;
         Array.unsafe_set range 1 hi;
         not (lo > hi)
       end
     end

(* The volume estimator's phase walk: [sample] with the chord above,
   advancing the caller's [pos] in place with caller-owned [dir] and
   [range] scratch.  Same rng draws, same position update
   ([Vec.axpy]'s [u·dir_i + x_i]) and same accounting as [sample], so
   the two are interchangeable bit-for-bit. *)
let phase_walk rng poly ~radius ~pos ~dir ~range ~steps =
  Tel.Counter.incr tel_samples;
  Tel.Counter.add tel_steps steps;
  Progress.add_steps steps;
  let dim = Vec.dim pos in
  let degenerate = ref 0 in
  for _ = 1 to steps do
    Rng.unit_vector_into rng dir;
    if ball_polytope_chord_into poly ~radius pos dir range then begin
      let lo = Array.unsafe_get range 0 and hi = Array.unsafe_get range 1 in
      if hi > lo && Float.is_finite lo && Float.is_finite hi then begin
        let u = Rng.uniform rng lo hi in
        for i = 0 to dim - 1 do
          Array.unsafe_set pos i ((u *. Array.unsafe_get dir i) +. Array.unsafe_get pos i)
        done
      end
      else incr degenerate
    end
    else incr degenerate
  done;
  Tel.Counter.add tel_degenerate !degenerate;
  warn_stuck ~steps ~dim ~degenerate:!degenerate

(* Polytope specialization on the incremental kernel: the cached-product
   cursor replaces the O(m·d) chord recomputation by one O(m·d) pass
   for A·dir plus an O(m) cache update, and the preallocated direction
   buffer keeps the inner loop free of per-step allocation.  The rng
   stream is identical to the generic [sample] above, so trajectories
   agree with the naive kernel up to rounding.

   All accounting is per-invocation: the unmonitored inner loop below is
   nothing but rng draws and kernel arithmetic. *)
let sample_polytope ?monitor rng poly ~start ~steps =
  Tel.Counter.incr tel_samples;
  Tel.Counter.add tel_steps steps;
  Progress.add_steps steps;
  let sp = Trace.start "hit_and_run.walk" in
  Trace.add_attr_int "steps" steps;
  Trace.add_attr_int "dim" (Polytope.dim poly);
  let cur = Polytope.Kernel.make poly start in
  let dir = Vec.create (Polytope.dim poly) in
  let degenerate = ref 0 in
  (match monitor with
  | None ->
      for _ = 1 to steps do
        Rng.unit_vector_into rng dir;
        if Polytope.Kernel.chord cur dir then begin
          let lo = Polytope.Kernel.lo cur and hi = Polytope.Kernel.hi cur in
          if hi > lo && Float.is_finite lo && Float.is_finite hi then
            Polytope.Kernel.advance cur dir (Rng.uniform rng lo hi)
          else incr degenerate
        end
        else incr degenerate
      done
  | Some m ->
      let monitor = Some m in
      for _ = 1 to steps do
        Rng.unit_vector_into rng dir;
        (if Polytope.Kernel.chord cur dir then begin
           let lo = Polytope.Kernel.lo cur and hi = Polytope.Kernel.hi cur in
           if hi > lo && Float.is_finite lo && Float.is_finite hi then begin
             Polytope.Kernel.advance cur dir (Rng.uniform rng lo hi);
             Diag.Monitor.accept m
           end
           else note_degenerate monitor degenerate
         end
         else note_degenerate monitor degenerate);
        Diag.Monitor.record m (Polytope.Kernel.pos cur)
      done);
  Tel.Counter.add tel_degenerate !degenerate;
  warn_stuck ~steps ~dim:(Polytope.dim poly) ~degenerate:!degenerate;
  Trace.finish sp;
  Polytope.Kernel.pos cur

(* ------------------------------------------------------------------ *)
(* Batched multi-chain sampler                                          *)
(* ------------------------------------------------------------------ *)

type dir_mode = Compat | Fast

module Batch = Polytope.Kernel.Batch

(* K chains advance in lockstep through [Polytope.Kernel.Batch]: per
   step, all K directions are drawn and staged, one shared matrix pass
   computes every chain's chord, then each chain lands uniformly on its
   own chord.  Chain [c] consumes only [rngs.(c)], and the per-chain
   draw order (direction fill, then a uniform iff the chord accepted)
   matches [sample_polytope] exactly — so in [Compat] mode every chain
   is bit-identical to a single-chain run from the same rng and start.
   [Fast] mode swaps the direction generator for the ziggurat
   ([Rng.unit_vector_into_fast]): same distribution on a cheaper,
   distinct stream, the default once K > 1 where no single-chain replay
   contract exists.  Accounting (telemetry, progress, trace, the stuck
   warning) is per batch invocation, never per step or chain. *)
let sample_polytope_batch ?monitors ?dir_mode rngs poly ~starts ~steps =
  let k = Array.length rngs in
  if k = 0 then invalid_arg "Hit_and_run.sample_polytope_batch: no chains";
  if Array.length starts <> k then
    invalid_arg "Hit_and_run.sample_polytope_batch: starts/rngs length mismatch";
  let mons = match monitors with Some ms -> ms | None -> [||] in
  if Array.length mons <> 0 && Array.length mons <> k then
    invalid_arg "Hit_and_run.sample_polytope_batch: monitors/rngs length mismatch";
  let mode = match dir_mode with Some m -> m | None -> if k = 1 then Compat else Fast in
  Tel.Counter.add tel_samples k;
  Tel.Counter.add tel_steps (k * steps);
  Progress.add_steps (k * steps);
  let sp = Trace.start "hit_and_run.batch" in
  Trace.add_attr_int "chains" k;
  Trace.add_attr_int "steps" steps;
  Trace.add_attr_int "dim" (Polytope.dim poly);
  let d = Polytope.dim poly in
  let b = Batch.make poly starts in
  let dirs = Batch.directions b in
  let lows = Batch.lows b and highs = Batch.highs b in
  let compat = match mode with Compat -> true | Fast -> false in
  let monitored = Array.length mons > 0 in
  let degenerate = ref 0 in
  for _ = 1 to steps do
    (* Two direct-call loops instead of one through a function value:
       the per-chain direction draw is the hottest call site, and the
       slice fills land straight in the chain-major direction block. *)
    if compat then
      for c = 0 to k - 1 do
        Rng.unit_vector_slice (Array.unsafe_get rngs c) dirs (c * d) d
      done
    else
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
  Tel.Counter.add tel_degenerate !degenerate;
  if steps >= 16 && !degenerate = k * steps && Log.would_log Log.Warn then
    Log.warn "hit_and_run.stuck"
      [ Log.int "steps" steps; Log.int "chains" k; Log.int "dim" d ];
  Trace.finish sp;
  Array.init k (fun c -> Batch.pos b c)

(* Shared with the static cost model: see [Scdb_plan.Cost]. *)
let default_steps ~dim = Scdb_plan.Cost.hit_and_run_steps ~dim
