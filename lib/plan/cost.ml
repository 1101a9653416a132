let samples_for_additive ~eps ~delta =
  if eps <= 0.0 || delta <= 0.0 then invalid_arg "Cost.samples_for_additive";
  int_of_float (ceil (log (2.0 /. delta) /. (2.0 *. eps *. eps)))

let samples_for_ratio ~eps ~delta ~p_lower =
  if eps <= 0.0 || delta <= 0.0 || p_lower <= 0.0 then invalid_arg "Cost.samples_for_ratio";
  int_of_float (ceil (3.0 *. log (2.0 /. delta) /. (eps *. eps *. p_lower)))

let stopping_threshold ~eps ~delta =
  if not (eps > 0.0 && eps < 1.0 && delta > 0.0 && delta < 1.0) then
    invalid_arg "Cost.stopping_threshold";
  1.0 +. ((1.0 +. eps) *. 4.0 *. (exp 1.0 -. 2.0) *. log (2.0 /. delta) /. (eps *. eps))

let stopping_trials ~eps ~delta ~p_lower =
  if p_lower <= 0.0 then invalid_arg "Cost.stopping_trials";
  int_of_float (ceil (stopping_threshold ~eps ~delta /. p_lower))

let fraction_trials_cap = 200_000

let union_trials ~m ~delta =
  Stdlib.max 4 (int_of_float (ceil (float_of_int m *. log (1.0 /. delta))))

let child_grant ~m ~eps ~delta = (eps /. 3.0, delta /. float_of_int (4 * m))

let rejection_budget ~dim ~poly_degree ~delta =
  let d = Float.max 2.0 (float_of_int dim) in
  let bound = (d ** float_of_int poly_degree) *. log (1.0 /. delta) in
  Stdlib.max 32 (int_of_float (ceil bound))

let poly_floor ~dim ~poly_degree =
  1.0 /. (Float.max 2.0 (float_of_int dim) ** float_of_int poly_degree)

let boost_runs ~delta =
  if delta <= 0.0 || delta >= 1.0 then invalid_arg "Cost.boost_runs";
  let n = int_of_float (ceil (18.0 *. log (1.0 /. delta))) in
  let n = Stdlib.max 1 n in
  if n mod 2 = 0 then n + 1 else n

let hit_and_run_steps ~dim =
  let d = float_of_int dim in
  int_of_float (Float.max 60.0 (12.0 *. d *. log (d +. 2.0) *. log (d +. 2.0)))

let lattice_steps ~dim ~eps =
  let d = float_of_int dim in
  int_of_float (Float.max 200.0 (8.0 *. d *. d *. d *. log (1.0 /. eps)))

let rejection_box_trials ~dim =
  let d = Stdlib.min dim 16 in
  Stdlib.min 20_000 (4 * (1 lsl d))

let lasserre_calls ~dim ~rows =
  if dim < 0 || rows < 0 then invalid_arg "Cost.lasserre_calls";
  (* Σ_{k<d} m!/(m−k)!, the falling factorials built term by term; a
     term is 0 once k > m. *)
  let total = ref 0.0 and term = ref 1.0 in
  for k = 0 to dim - 1 do
    total := !total +. !term;
    term := !term *. float_of_int (Stdlib.max 0 (rows - k))
  done;
  !total

let walk_steps_per_lasserre_call = 8.0

let binomial n k =
  if k < 0 || k > n then 0.0
  else begin
    let k = Stdlib.min k (n - k) and c = ref 1.0 in
    for i = 1 to k do
      c := !c *. float_of_int (n - k + i) /. float_of_int i
    done;
    Float.round !c
  end

let exact_sampler_faces ~dim ~rows =
  if dim < 0 || rows < 0 then invalid_arg "Cost.exact_sampler_faces";
  let total = ref 0.0 in
  for j = 0 to dim do
    total := !total +. binomial rows j
  done;
  !total

let exact_sampler_face_cap = 4096.0
let walk_steps_per_lattice_face = 16.0
let walk_steps_per_exact_draw = 2.0

let exact_sampler_build_steps ~dim ~rows =
  (walk_steps_per_lattice_face *. exact_sampler_faces ~dim ~rows)
  +. binomial rows dim

let rejection_box_trials_exact ~box_volume ~body_volume =
  if not (body_volume > 0.0 && box_volume > 0.0) then invalid_arg "Cost.rejection_box_trials_exact";
  Float.max 1.0 (box_volume /. body_volume)

let volume_phases ~dim ?aspect () =
  if dim = 0 then 0
  else begin
    let d = float_of_int dim in
    let aspect = match aspect with Some a -> a | None -> Float.max 2.0 (d ** 1.5) in
    if aspect <= 1.0 then 0
    (* [Float.log2], not [log a /. log 2]: the quotient reads
       1.5000000000000002 at a = 2^1.5, which gave d = 2 four phases. *)
    else int_of_float (ceil (d *. Float.log2 aspect))
  end

let delta_at_work_ratio ~delta ~ratio =
  if delta <= 0.0 || delta >= 1.0 then invalid_arg "Cost.delta_at_work_ratio";
  if Float.is_nan ratio then Float.nan
  else if ratio <= 0.0 then 1.0
  else Float.min 1.0 (2.0 *. ((delta /. 2.0) ** ratio))

let volume_samples_per_phase ~eps ~delta ~phases =
  if phases = 0 then 0
  else begin
    let q = float_of_int phases in
    samples_for_ratio ~eps:(eps /. (2.0 *. q)) ~delta:(delta /. q) ~p_lower:0.5
  end
