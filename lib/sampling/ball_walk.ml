module Probe = Scdb_obs.Probe
module Diag = Scdb_diag.Diag

let probe = Probe.walk ~tally:"ball_walk.accepted" "ball_walk.steps"

let walk_phase =
  Probe.phase "ball_walk.walk" (fun steps radius ->
      [ Probe.int "steps" steps; Probe.float "radius" radius ])

let batch_phase =
  Probe.phase "ball_walk.batch" (fun chains steps radius ->
      [ Probe.int "chains" chains; Probe.int "steps" steps; Probe.float "radius" radius ])

(* Zero acceptances over a real budget: the proposal radius is too
   large for the body (walker pinned at the start point). *)
let stuck =
  Probe.warning "ball_walk.stuck" (fun steps radius dim ->
      [ Probe.int "steps" steps; Probe.float "radius" radius; Probe.int "dim" dim ])

let stuck_batch =
  Probe.warning "ball_walk.stuck" (fun steps chains radius dim ->
      [
        Probe.int "steps" steps;
        Probe.int "chains" chains;
        Probe.float "radius" radius;
        Probe.int "dim" dim;
      ])

type stats = { steps : int; accepted : int }

let default_radius ~dim ~r_inscribed = r_inscribed /. sqrt (float_of_int dim)

let walk ?monitor rng ~mem ~start ~steps ~radius =
  if not (mem start) then invalid_arg "Ball_walk.walk: start outside the body";
  let sp = Probe.enter walk_phase in
  let dim = Vec.dim start in
  let current = ref (Vec.copy start) in
  let accepted = ref 0 in
  let u = Vec.create dim in
  for _ = 1 to steps do
    Rng.in_ball_into_fast rng u;
    let proposal = Vec.add !current (Vec.scale radius u) in
    (if mem proposal then begin
       current := proposal;
       incr accepted;
       match monitor with Some m -> Diag.Monitor.accept m | None -> ()
     end
     else match monitor with Some m -> Diag.Monitor.reject m | None -> ());
    match monitor with Some m -> Diag.Monitor.record m !current | None -> ()
  done;
  Probe.steps probe ~chains:1 ~steps ~proposals:0 ~tally:!accepted;
  if steps >= 16 && !accepted = 0 then Probe.warn3 stuck steps radius dim;
  Probe.leave2 walk_phase sp steps radius;
  (!current, { steps; accepted = !accepted })

let resolve_radius poly radius =
  match radius with
  | Some r -> r
  | None -> (
      match Polytope.chebyshev poly with
      | Some (_, r) when r > 0.0 -> default_radius ~dim:(Polytope.dim poly) ~r_inscribed:r
      | _ -> invalid_arg "Ball_walk.sample_polytope: degenerate body")

let sample_polytope ?monitor rng poly ~start ~steps ?radius () =
  let radius = resolve_radius poly radius in
  fst (walk ?monitor rng ~mem:(fun x -> Polytope.mem poly x) ~start ~steps ~radius)

(* Batched ball walk on [Polytope.Kernel.Batch]: all K displacement
   vectors are staged, one shared matrix pass evaluates every chain's
   proposal against the cached row products ([propose_all]), and
   accepted chains commit incrementally — replacing K full [O(m·d)]
   membership evaluations per step by one amortized pass plus [O(m)]
   commits.  Chain [c] consumes only [rngs.(c)] and draws its ball
   point exactly like {!walk} (the ziggurat fill, then the radius
   draw).  Acceptance compares the incrementally-cached [A·x + A·δ]
   against [b], which can differ from the from-scratch oracle in the
   last ulp — the stationary law is identical, guarded by the
   chi-square audits. *)
let sample_polytope_batch ?monitors rngs poly ~starts ~steps ?radius () =
  let k = Array.length rngs in
  if k = 0 then invalid_arg "Ball_walk.sample_polytope_batch: no chains";
  if Array.length starts <> k then
    invalid_arg "Ball_walk.sample_polytope_batch: starts/rngs length mismatch";
  let mons = match monitors with Some ms -> ms | None -> [||] in
  if Array.length mons <> 0 && Array.length mons <> k then
    invalid_arg "Ball_walk.sample_polytope_batch: monitors/rngs length mismatch";
  let radius = resolve_radius poly radius in
  let dim = Polytope.dim poly in
  let sp = Probe.enter batch_phase in
  let b = Polytope.Kernel.Batch.make poly starts in
  let dirs = Polytope.Kernel.Batch.directions b in
  let viols = Polytope.Kernel.Batch.violations b in
  let monitored = Array.length mons > 0 in
  let accepted = ref 0 in
  for _ = 1 to steps do
    (* Direct-call slice fills into the chain-major displacement block:
       no staging vector, no blit, no closure on the hot path. *)
    for c = 0 to k - 1 do
      Rng.in_ball_slice_fast (Array.unsafe_get rngs c) dirs (c * dim) dim
    done;
    for j = 0 to (k * dim) - 1 do
      Array.unsafe_set dirs j (radius *. Array.unsafe_get dirs j)
    done;
    Polytope.Kernel.Batch.propose_all b;
    for c = 0 to k - 1 do
      if Array.unsafe_get viols c <= 0.0 then begin
        Polytope.Kernel.Batch.advance b c 1.0;
        incr accepted;
        if monitored then Diag.Monitor.accept mons.(c)
      end
      else if monitored then Diag.Monitor.reject mons.(c);
      if monitored then
        Diag.Monitor.record_off mons.(c) (Polytope.Kernel.Batch.positions b) (c * dim)
    done
  done;
  Probe.steps probe ~chains:k ~steps:(k * steps) ~proposals:0 ~tally:!accepted;
  if steps >= 16 && !accepted = 0 then Probe.warn4 stuck_batch steps k radius dim;
  Probe.leave3 batch_phase sp k steps radius;
  Array.init k (fun c -> Polytope.Kernel.Batch.pos b c)
