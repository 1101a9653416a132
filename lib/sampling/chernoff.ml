module Probe = Scdb_obs.Probe

let trial = Probe.trial ~counter:"chernoff.samples" ()

(* The stopping rule hit its cap below [need] hits: only reachable
   below the floor (for p ≥ p_floor the cap holds 2Υ₁ expected hits, so
   P[cap] ≤ e^(−Υ₁/4)) or under the clamp, and the (ε,δ) contract is
   then weakened. *)
let capped =
  Probe.warning ~counter:"chernoff.stopping.capped" "chernoff.budget_exhausted"
    (fun trials hits threshold eps delta ->
      [
        Probe.int "trials" trials;
        Probe.int "hits" hits;
        Probe.float "threshold" threshold;
        Probe.float "eps" eps;
        Probe.float "delta" delta;
      ])

(* The sizing formulas live in [Scdb_plan.Cost] so the static cost
   model and the runtime spend budgets from the same source. *)
let samples_for_additive = Scdb_plan.Cost.samples_for_additive
let samples_for_ratio = Scdb_plan.Cost.samples_for_ratio

let estimate_fraction rng ~samples f =
  if samples <= 0 then invalid_arg "Chernoff.estimate_fraction";
  Probe.trials trial samples;
  let hits = ref 0 in
  for _ = 1 to samples do
    if f rng then incr hits
  done;
  float_of_int !hits /. float_of_int samples

type stopping = { trials : int; hits : int; estimate : float }

let estimate_fraction_stopping rng ~eps ~delta ~p_floor ?(max_trials = max_int) f =
  if max_trials < 1 then invalid_arg "Chernoff.estimate_fraction_stopping";
  let threshold = Scdb_plan.Cost.stopping_threshold ~eps ~delta in
  (* Hits are integers, so "S ≥ Υ₁" is "hits ≥ ⌈Υ₁⌉". *)
  let need = int_of_float (ceil threshold) in
  let cap =
    Stdlib.min max_trials (2 * Scdb_plan.Cost.stopping_trials ~eps ~delta ~p_lower:p_floor)
  in
  let hits = ref 0 and n = ref 0 in
  while !hits < need && !n < cap do
    incr n;
    if f rng then incr hits
  done;
  let n = !n and hits = !hits in
  Probe.trials trial n;
  if hits >= need then { trials = n; hits; estimate = threshold /. float_of_int n }
  else begin
    Probe.warn5 capped n hits threshold eps delta;
    { trials = n; hits; estimate = float_of_int hits /. float_of_int n }
  end

let median_of_means rng ~blocks ~block_size f =
  if blocks <= 0 || block_size <= 0 then invalid_arg "Chernoff.median_of_means";
  Probe.trials trial (blocks * block_size);
  let means =
    Array.init blocks (fun _ ->
        let s = ref 0.0 in
        for _ = 1 to block_size do
          s := !s +. f rng
        done;
        !s /. float_of_int block_size)
  in
  Scdb_diag.Diag.median means
