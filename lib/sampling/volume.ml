module Tel = Scdb_telemetry.Telemetry
module Probe = Scdb_obs.Probe

let tel_estimates = Tel.Counter.make "volume.estimates"
let tel_phases = Tel.Counter.make "volume.phases"
let tel_samples = Tel.Counter.make "volume.samples"
let tel_ratio = Tel.Histogram.make "volume.phase_ratio"

let estimate_phase =
  Probe.phase "volume.estimate" (fun dim phases samples_per_phase walk_steps ->
      [
        Probe.int "dim" dim;
        Probe.int "phases" phases;
        Probe.int "samples_per_phase" samples_per_phase;
        Probe.int "walk_steps" walk_steps;
      ])

let ratio_phase =
  Probe.phase "volume.phase" (fun phase radius hits ratio ->
      [
        Probe.int "phase" phase;
        Probe.float "radius" radius;
        Probe.int "hits" hits;
        Probe.float "ratio" ratio;
      ])

(* The telescoping product needs every phase ratio ≥ ~1/2; a zero-hit
   phase means the walk never reached the inner ball and the ratio's
   floor is doing all the work. *)
let collapse =
  Probe.warning "volume.phase_collapse" (fun phase phases samples_per_phase radius ->
      [
        Probe.int "phase" phase;
        Probe.int "phases" phases;
        Probe.int "samples_per_phase" samples_per_phase;
        Probe.float "radius" radius;
      ])

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

(* Move the warm start in place to one point of [poly ∩ B(0, radius)]:
   the hit-and-run chain's own position, or [pos] for the lattice
   walk. *)
let phase_sample rng ~chain ~poly ~radius ~walk_steps ~grid_gamma pos =
  match chain with
  | Some b -> Hit_and_run.phase_walk rng b ~radius ~steps:walk_steps
  | None ->
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
  (match budget with
  | Practical n when n < 1 -> invalid_arg "Volume.estimate: Practical budget must be >= 1"
  | _ -> ());
  (match walk_steps with
  | Some s when s < 1 -> invalid_arg "Volume.estimate: walk_steps must be >= 1"
  | _ -> ());
  let d = Polytope.dim poly in
  if d = 0 then Some { volume = 1.0; phases = 0; samples_per_phase = 0; walk_steps = 0; rounding_ratio = 1.0 }
  else begin
    match Rounding.round rng ?rounds:rounding_rounds poly with
    | Error _ -> None
    | Ok rounded ->
        let body = rounded.Rounding.rounded in
        let r0 = rounded.Rounding.r_inf and rq = rounded.Rounding.r_sup in
        (* Radii rᵢ = r₀·2^{i/d} until the enclosing ball is covered:
           each K_{i-1} ⊇ shrunk copy of K_i, so the ratio is ≥ 1/2. *)
        let q = Scdb_plan.Cost.volume_phases ~dim:d ~aspect:(rq /. r0) () in
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
        let sp_est = Probe.enter estimate_phase in
        let product = ref 1.0 in
        (* One warm-started position for every sample of every phase,
           from the origin (the centre of the inscribed unit ball).
           Hit-and-run walks it as the one chain of a batch, so [pos]
           is that chain's position block. *)
        let chain =
          match sampler with
          | Hit_and_run -> Some (Polytope.Kernel.Batch.make body [| Vec.create d |])
          | Grid_walk -> None
        in
        let pos =
          match chain with Some b -> Polytope.Kernel.Batch.positions b | None -> Vec.create d
        in
        for i = 1 to q do
          let r_small = radius (i - 1) and r_big = Float.min rq (radius i) in
          let sp_phase = Probe.enter ratio_phase in
          let hits = ref 0 in
          for _ = 1 to samples_per_phase do
            phase_sample rng ~chain ~poly:body ~radius:r_big ~walk_steps ~grid_gamma:eps pos;
            if Vec.norm pos <= r_small then incr hits
          done;
          if !hits = 0 && samples_per_phase > 0 then
            Probe.warn4 collapse i q samples_per_phase r_big;
          let ratio =
            if samples_per_phase = 0 then 1.0
            else Float.max (float_of_int !hits /. float_of_int samples_per_phase) 1e-9
          in
          Tel.Histogram.observe tel_ratio ratio;
          Probe.leave4 ratio_phase sp_phase i r_big !hits ratio;
          product := !product /. ratio
        done;
        Probe.leave4 estimate_phase sp_est d q samples_per_phase walk_steps;
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
