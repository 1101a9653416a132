module Probe = Scdb_obs.Probe
module Diag = Scdb_diag.Diag

let probe =
  Probe.walk ~chains:"walk.walks" ~proposals:"walk.proposals" ~tally:"walk.accepted" "walk.steps"

let walk_phase = Probe.phase "grid_walk.walk" (fun steps -> [ Probe.int "steps" steps ])

let batch_phase =
  Probe.phase "grid_walk.batch" (fun chains steps dim ->
      [ Probe.int "chains" chains; Probe.int "steps" steps; Probe.int "dim" dim ])

let stuck =
  Probe.warning "walk.stuck" (fun proposals steps grid_step ->
      [
        Probe.int "proposals" proposals;
        Probe.int "steps" steps;
        Probe.float "grid_step" grid_step;
      ])

type oracle = Vec.t -> bool

(* Shared with the static cost model: see [Scdb_plan.Cost]. *)
let default_steps ~dim ~eps = Scdb_plan.Cost.lattice_steps ~dim ~eps

(* Lazy symmetric walk: stay with probability 1/2, otherwise try a
   uniformly random lattice neighbour and move only if it remains in the
   body.  [proposals] and [accepted] tally the moves tried and made. *)
let step ?monitor rng grid mem ~proposals ~accepted current =
  if Rng.bool rng then current
  else begin
    let dim = (grid : Grid.t).dim in
    let coord = Rng.int rng dim in
    let delta = if Rng.bool rng then 1 else -1 in
    let candidate = Array.copy current in
    candidate.(coord) <- candidate.(coord) + delta;
    incr proposals;
    if mem (Grid.to_point grid candidate) then begin
      incr accepted;
      (match monitor with Some m -> Diag.Monitor.accept m | None -> ());
      candidate
    end
    else begin
      (match monitor with Some m -> Diag.Monitor.reject m | None -> ());
      current
    end
  end

let walk ?monitor rng ~grid ~mem ~start ~steps =
  if not (mem (Grid.to_point grid start)) then invalid_arg "Walk.walk: start outside the body";
  let sp = Probe.enter walk_phase in
  let current = ref start and proposals = ref 0 and accepted = ref 0 in
  for _ = 1 to steps do
    current := step ?monitor rng grid mem ~proposals ~accepted !current;
    match monitor with Some m -> Diag.Monitor.record m (Grid.to_point grid !current) | None -> ()
  done;
  Probe.leave1 walk_phase sp steps;
  Probe.steps probe ~chains:1 ~steps ~proposals:!proposals ~tally:!accepted;
  !current

let sample ?monitor rng ~grid ~mem ~start ~steps =
  let start_idx = Grid.of_point grid start in
  Grid.to_point grid (walk ?monitor rng ~grid ~mem ~start:start_idx ~steps)

(* Lattice walk on [Polytope.Kernel.Batch], K chains sharing one
   state: a lattice move changes one coordinate, so the membership test
   degrades from the O(m·d) oracle evaluation to an O(m) single-column
   update of the cached row products.  Batching buys locality and
   per-batch accounting rather than arithmetic amortization — but it
   gives `--chains` one uniform engine across all three samplers.
   Chain [c] consumes only [rngs.(c)] with the same per-chain draw
   order as [sample] with the membership oracle (lazy bool, then coord
   and sign iff moving), so a chain is bit-identical to a K = 1 run
   from the same rng. *)
let sample_polytope_batch ?monitors rngs ~grid poly ~starts ~steps =
  let k = Array.length rngs in
  if k = 0 then invalid_arg "Walk.sample_polytope_batch: no chains";
  if Array.length starts <> k then
    invalid_arg "Walk.sample_polytope_batch: starts/rngs length mismatch";
  let mons = match monitors with Some ms -> ms | None -> [||] in
  if Array.length mons <> 0 && Array.length mons <> k then
    invalid_arg "Walk.sample_polytope_batch: monitors/rngs length mismatch";
  let g = (grid : Grid.t) in
  let idxs = Array.map (Grid.of_point grid) starts in
  let xs = Array.map (Grid.to_point grid) idxs in
  Array.iter
    (fun x ->
      if not (Polytope.mem poly x) then
        invalid_arg "Walk.sample_polytope_batch: start outside the body")
    xs;
  let sp = Probe.enter batch_phase in
  let b = Polytope.Kernel.Batch.make poly xs in
  let monitored = Array.length mons > 0 in
  let proposals = ref 0 and accepted = ref 0 in
  for _ = 1 to steps do
    for c = 0 to k - 1 do
      let rng = Array.unsafe_get rngs c in
      (if not (Rng.bool rng) then begin
         let idx = Array.unsafe_get idxs c in
         let coord = Rng.int rng g.dim in
         let delta = if Rng.bool rng then 1 else -1 in
         (* Same expression as [Grid.to_point], so accepted positions are
            bit-identical to the oracle walk's. *)
         let v = float_of_int (idx.(coord) + delta) *. g.step in
         incr proposals;
         if Polytope.Kernel.Batch.try_set_coord b c coord v then begin
           incr accepted;
           if monitored then Diag.Monitor.accept mons.(c);
           idx.(coord) <- idx.(coord) + delta
         end
         else if monitored then Diag.Monitor.reject mons.(c)
       end);
      if monitored then
        Diag.Monitor.record_off mons.(c) (Polytope.Kernel.Batch.positions b) (c * g.dim)
    done
  done;
  (* Every proposal rejected: the grid step straddles the body (γ too
     coarse for this polytope), so the lattice walk cannot mix. *)
  if !proposals >= 32 && !accepted = 0 then Probe.warn3 stuck !proposals steps g.step;
  Probe.leave3 batch_phase sp k steps g.dim;
  Probe.steps probe ~chains:k ~steps:(k * steps) ~proposals:!proposals ~tally:!accepted;
  Array.init k (fun c -> Polytope.Kernel.Batch.pos b c)

let trajectory rng ~grid ~mem ~start ~steps =
  if not (mem (Grid.to_point grid start)) then invalid_arg "Walk.trajectory: start outside the body";
  let proposals = ref 0 and accepted = ref 0 in
  let rec go acc current n =
    if n = 0 then acc
    else begin
      let next = step rng grid mem ~proposals ~accepted current in
      go (next :: acc) next (n - 1)
    end
  in
  let visited = go [ start ] start steps in
  (* Moves only: a trajectory is not a walk of the sampler's budget. *)
  Probe.steps probe ~chains:0 ~steps:0 ~proposals:!proposals ~tally:!accepted;
  visited
