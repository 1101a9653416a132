module Tel = Scdb_telemetry.Telemetry
module Trace = Scdb_trace.Trace
module Log = Scdb_log.Log

let tel_estimates = Tel.Counter.make "volume.estimates"
let tel_phases = Tel.Counter.make "volume.phases"
let tel_samples = Tel.Counter.make "volume.samples"
let tel_ratio = Tel.Histogram.make "volume.phase_ratio"

type sampler = Grid_walk | Hit_and_run

type budget = Rigorous | Practical of int

type report = {
  volume : float;
  phases : int;
  samples_per_phase : int;
  walk_steps : int;
  rounding_ratio : float;
}

let rec ball_volume ~dim ~radius =
  match dim with
  | 0 -> 1.0
  | 1 -> 2.0 *. radius
  | d -> ball_volume ~dim:(d - 2) ~radius *. 2.0 *. Float.pi *. radius *. radius /. float_of_int d

(* Move the warm start [pos] in place to one point of
   [poly ∩ B(0, radius)].  [dir] and [range] are the hit-and-run
   walk's scratch, owned by the estimate. *)
let phase_sample rng ~sampler ~poly ~radius ~walk_steps ~grid_gamma ~dir ~range pos =
  match sampler with
  | Hit_and_run -> Hit_and_run.phase_walk rng poly ~radius ~pos ~dir ~range ~steps:walk_steps
  | Grid_walk ->
      let dim = Polytope.dim poly in
      let grid = Grid.step_for ~gamma:grid_gamma ~dim ~scale:radius in
      let mem x = Polytope.mem poly x && Vec.norm x <= radius in
      (* The origin is interior (inscribed unit ball), so its lattice
         vertex is a valid start. *)
      let start = if mem (Grid.round_to_grid grid pos) then pos else Vec.create dim in
      let p = Walk.sample rng ~grid ~mem ~start ~steps:walk_steps in
      Array.blit p 0 pos 0 dim

let estimate rng ?(eps = 0.25) ?(delta = 0.25) ?(sampler = Hit_and_run) ?(budget = Rigorous)
    ?walk_steps ?rounding_rounds poly =
  let d = Polytope.dim poly in
  if d = 0 then Some { volume = 1.0; phases = 0; samples_per_phase = 0; walk_steps = 0; rounding_ratio = 1.0 }
  else begin
    match Rounding.round rng ?rounds:rounding_rounds poly with
    | None -> None
    | Some rounded ->
        let body = rounded.Rounding.rounded in
        let r0 = rounded.Rounding.r_inf and rq = rounded.Rounding.r_sup in
        (* Radii rᵢ = r₀·2^{i/d} until the enclosing ball is covered:
           each K_{i-1} ⊇ shrunk copy of K_i, so the ratio is ≥ 1/2. *)
        let q =
          if rq <= r0 then 0
          else int_of_float (ceil (float_of_int d *. (log (rq /. r0) /. log 2.0)))
        in
        let radius i = r0 *. (2.0 ** (float_of_int i /. float_of_int d)) in
        let samples_per_phase =
          match budget with
          | Practical n -> n
          | Rigorous ->
              if q = 0 then 0
              else
                (* Per-phase ratio target (1+ε)^{1/q} − 1 ≈ ε/q, each
                   ratio is ≥ 1/2, and the per-phase failure budget is
                   δ/q. *)
                let eps_phase = eps /. (2.0 *. float_of_int q) in
                Chernoff.samples_for_ratio ~eps:eps_phase ~delta:(delta /. float_of_int q)
                  ~p_lower:0.5
        in
        let walk_steps =
          match walk_steps with
          | Some s -> s
          | None -> (
              match sampler with
              | Hit_and_run -> Hit_and_run.default_steps ~dim:d
              | Grid_walk -> Walk.default_steps ~dim:d ~eps)
        in
        Tel.Counter.incr tel_estimates;
        Tel.Counter.add tel_phases q;
        Tel.Counter.add tel_samples (q * samples_per_phase);
        let sp_est = Trace.start "volume.estimate" in
        Trace.add_attr_int "dim" d;
        Trace.add_attr_int "phases" q;
        Trace.add_attr_int "samples_per_phase" samples_per_phase;
        Trace.add_attr_int "walk_steps" walk_steps;
        let product = ref 1.0 in
        let pos = Vec.create d and dir = Vec.create d and range = Array.make 2 0.0 in
        for i = 1 to q do
          let r_small = radius (i - 1) and r_big = Float.min rq (radius i) in
          let sp_phase = Trace.start "volume.phase" in
          Trace.add_attr_int "phase" i;
          Trace.add_attr_float "radius" r_big;
          let hits = ref 0 in
          for _ = 1 to samples_per_phase do
            phase_sample rng ~sampler ~poly:body ~radius:r_big ~walk_steps ~grid_gamma:eps ~dir
              ~range pos;
            if Vec.norm pos <= r_small then incr hits
          done;
          (* The telescoping product needs every phase ratio ≥ ~1/2; a
             zero-hit phase means the walk never reached the inner ball
             and the floor below is doing all the work. *)
          if !hits = 0 && samples_per_phase > 0 && Log.would_log Log.Warn then
            Log.warn "volume.phase_collapse"
              [
                Log.int "phase" i;
                Log.int "phases" q;
                Log.int "samples_per_phase" samples_per_phase;
                Log.float "radius" r_big;
              ];
          let ratio =
            if samples_per_phase = 0 then 1.0
            else Float.max (float_of_int !hits /. float_of_int samples_per_phase) 1e-9
          in
          Tel.Histogram.observe tel_ratio ratio;
          Trace.add_attr_int "hits" !hits;
          Trace.add_attr_float "ratio" ratio;
          Trace.finish sp_phase;
          product := !product /. ratio
        done;
        Trace.finish sp_est;
        let inner = ball_volume ~dim:d ~radius:r0 in
        let vol_rounded = inner *. !product in
        let volume = vol_rounded /. Affine.volume_scale rounded.Rounding.transform in
        Some
          {
            volume;
            phases = q;
            samples_per_phase;
            walk_steps;
            rounding_ratio = Rounding.aspect_ratio rounded;
          }
  end
