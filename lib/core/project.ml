module Probe = Scdb_obs.Probe

let trial = Probe.trial ()

type fiber_volume = Exact | Estimated of int

let complement ~dim keep = List.filter (fun i -> not (List.mem i keep)) (List.init dim Fun.id)

(* The part of [row · x] that [y] fixes: [Σ_pos row_{keep_pos} · y_pos]. *)
let shift keep_arr row y =
  let s = ref 0.0 in
  Array.iteri (fun pos j -> s := !s +. (row.(j) *. y.(pos))) keep_arr;
  !s

let fiber poly ~keep y =
  let d = Polytope.dim poly in
  let rest = complement ~dim:d keep in
  let e = List.length keep in
  if Vec.dim y <> e then invalid_arg "Project.fiber: point dimension mismatch";
  let keep_arr = Array.of_list keep and rest_arr = Array.of_list rest in
  let a' =
    Array.map (fun row -> Array.map (fun j -> row.(j)) rest_arr) (poly : Polytope.t).a
  in
  let b' = Array.mapi (fun i row -> poly.b.(i) -. shift keep_arr row y) poly.a in
  Polytope.make ~dim:(d - e) a' b'

(* [round (x · 2^20)]: the fiber's rows quantized to 2^-20 and scaled by
   2^20, which leaves each halfspace as it is.  Raw floats carry 53-bit
   dyadic denominators that blow up the bigint arithmetic inside the
   Lasserre recursion; 20 bits is far below the sampler's own noise. *)
let quantized x =
  let r = Float.round (x *. 1048576.0) in
  if Float.abs r < 0x1p62 then Bigint.of_int (Float.to_int r) else (Rational.of_float r).num

(* The exact fiber volume [y ↦ h(y)]: the rows of [fiber poly ~keep y],
   quantized, fed to the Lasserre recursion as integers.  The columns
   do not depend on [y] and are quantized once, at the first call (a
   coefficient beyond the float range raises there). *)
let exact_fiber poly ~keep =
  let d = Polytope.dim poly in
  let keep_arr = Array.of_list keep and rest_arr = Array.of_list (complement ~dim:d keep) in
  let e = Array.length keep_arr in
  let a = lazy (Array.map (fun row -> Array.map (fun j -> quantized row.(j)) rest_arr) (poly : Polytope.t).a) in
  fun y ->
    if Vec.dim y <> e then invalid_arg "Project.fiber: point dimension mismatch";
    let a = Lazy.force a in
    let b = Array.mapi (fun i row -> quantized (poly.b.(i) -. shift keep_arr row y)) poly.a in
    match Volume_exact.volume_integer_system ~dim:(d - e) a b with
    | v -> Rational.to_float v
    | exception Volume_exact.Unbounded -> raise (Observable.Estimation_failed "unbounded fiber")

let default_fiber_mode ~codim = if codim <= 4 then Exact else Estimated 600

(* [y ↦ h(y)] under [mode]; the estimator draws on [rng]. *)
let fiber_oracle mode rng poly ~keep =
  match mode with
  | Exact -> exact_fiber poly ~keep
  | Estimated n -> (
      fun y ->
        match Volume.estimate rng ~budget:(Volume.Practical n) (fiber poly ~keep y) with
        | Some r -> r.Volume.volume
        | None -> 0.0)

let fiber_volume_of ?fiber_volume rng poly ~keep y =
  let codim = Polytope.dim poly - List.length keep in
  let mode = match fiber_volume with Some m -> m | None -> default_fiber_mode ~codim in
  fiber_oracle mode rng poly ~keep y

let check_keep poly keep =
  let d = Polytope.dim poly in
  let e = List.length keep in
  if e = 0 || e >= d then invalid_arg "Project: keep must be a proper non-empty subset";
  List.iter (fun i -> if i < 0 || i >= d then invalid_arg "Project: coordinate out of range") keep

let of_source ?fiber_volume ?(pilot_samples = 32) rng source poly ~keep =
  check_keep poly keep;
  if Observable.dim source <> Polytope.dim poly then
    invalid_arg "Project.of_source: source and polytope dimensions differ";
  let e = List.length keep in
  let codim = Polytope.dim poly - e in
  let mode = match fiber_volume with Some m -> m | None -> default_fiber_mode ~codim in
  let source = Observable.with_cached_volume source in
  (* Fiber volumes are evaluated per cell of a grid over the projected
     coordinates and memoized: Definition 2.2 discretizes everything
     to a γ-grid anyway, and the compensation only needs h at grid
     resolution.  Only the cells that source draws land in are
     evaluated, and each once: drawing 200 points from the two terrain
     prisms of the land-use instance (e = 2, so at most 2 · 96^2 =
     18,432 cells) evaluated 7,240 to 7,367 fibers over seeds 1 to 10. *)
  let cells = 96 in
  let proj_lo, proj_step =
    match Polytope.bounding_box poly with
    | None -> (Vec.create e, Array.make e 1.0)
    | Some (lo, hi) ->
        let keep_arr = Array.of_list keep in
        let plo = Array.map (fun i -> lo.(i)) keep_arr in
        let pstep =
          Array.map (fun i -> Float.max 1e-9 ((hi.(i) -. lo.(i)) /. float_of_int cells)) keep_arr
        in
        (plo, pstep)
  in
  let cell y i = int_of_float (Float.floor ((y.(i) -. proj_lo.(i)) /. proj_step.(i))) in
  let oracle = fiber_oracle mode rng poly ~keep in
  let cache : (int list, float) Hashtbl.t = Hashtbl.create 256 in
  let h y =
    let key = List.init e (cell y) in
    match Hashtbl.find_opt cache key with
    | Some v -> v
    | None ->
        let centre = Vec.init e (fun i -> proj_lo.(i) +. ((float_of_int (List.nth key i) +. 0.5) *. proj_step.(i))) in
        let v = oracle centre in
        let v = if Float.is_finite v && v > 0.0 then v else 0.0 in
        Hashtbl.replace cache key v;
        v
  in
  let mem y =
    (* y ∈ π(S) iff the fiber is a feasible system. *)
    let f = fiber poly ~keep y in
    not (Polytope.is_empty f)
  in
  (* Pre-pass: observed fiber volumes calibrate the acceptance
     constant c (a lower bound on the h values the sampler meets). *)
  let pilot_params = Params.make ~gamma:0.1 ~eps:0.2 ~delta:0.1 () in
  let pilot =
    List.filter_map
      (fun _ ->
        match Observable.sample source rng pilot_params with
        | None -> None
        | Some x ->
            let hx = h (Vec.keep x keep) in
            if hx > 0.0 then Some hx else None)
      (List.init pilot_samples Fun.id)
  in
  if pilot = [] then None
  else begin
    (* Acceptance constant: a low quantile of the observed fiber
       volumes rather than the minimum — one pilot point near a
       degenerate fiber (h → 0) would otherwise collapse the
       acceptance probability to zero.  Fibers thinner than c are
       accepted outright, which biases the law toward thick fibers.
       The bias stays inside the ε-slack only for 1-D fibers (the k = 1
       triangle of E1 and test_core).  The pilot points weight y by
       h(y), so the quantile clips far more than 5% of the projection's
       uniform mass where h vanishes at the boundary: on the
       cross-polytope shadows the centre mass reads 0.341 against 0.25
       at k = 3 (ROADMAP item 15, first bullet). *)
    let sorted = List.sort Float.compare pilot in
    let quantile_index = Stdlib.max 0 (List.length sorted / 20) in
    let c = List.nth sorted quantile_index /. 4.0 in
    let mean_inv_h =
      List.fold_left (fun acc hx -> acc +. (1.0 /. hx)) 0.0 pilot /. float_of_int (List.length pilot)
    in
    let acceptance_estimate = Float.max 1e-6 (c *. mean_inv_h) in
    let sample sample_rng params =
      let delta = Params.delta params in
      let trials =
        Stdlib.min 50_000
          (Stdlib.max 64 (int_of_float (ceil (2.0 /. acceptance_estimate *. log (1.0 /. delta)))))
      in
      let sub = Params.third_eps params in
      let rec attempt k =
        if k = 0 then None
        else begin
          Probe.trials trial 1;
          match Observable.sample source sample_rng sub with
          | None -> attempt (k - 1)
          | Some x ->
              let y = Vec.keep x keep in
              let hy = h y in
              if hy <= 0.0 then attempt (k - 1)
              else if Rng.float sample_rng < Float.min 1.0 (c /. hy) then Some y
              else attempt (k - 1)
        end
      in
      attempt trials
    in
    let volume vol_rng ~gamma ~eps ~delta =
      (* vol(π(S)) = vol(S) · E_{x~S}[ 1/h(π(x)) ]: the fiber volumes
         cancel the projection bias in expectation. *)
      let vol_s = Observable.volume source vol_rng ~gamma ~eps:(eps /. 3.0) ~delta:(delta /. 3.0) in
      (* Source draws discretize on the caller's grid. *)
      let params = Params.make ~gamma ~eps:(eps /. 3.0) ~delta:(delta /. 3.0) () in
      let blocks = Stdlib.max 3 (int_of_float (ceil (4.0 *. log (2.0 /. delta)))) in
      let block_size = Stdlib.max 16 (int_of_float (ceil (9.0 /. (eps *. eps)))) in
      let draw r =
        match Observable.sample source r params with
        | None -> 0.0
        | Some x ->
            let hy = h (Vec.keep x keep) in
            if hy <= 0.0 then 0.0 else 1.0 /. hy
      in
      let mean = Chernoff.median_of_means vol_rng ~blocks ~block_size draw in
      vol_s *. mean
    in
    Some (Observable.make ~dim:e ~mem ~sample ~volume ())
  end

let project ?fiber_volume ?pilot_samples rng poly ~keep =
  check_keep poly keep;
  match Convex_obs.of_polytope ~config:Convex_obs.practical_config rng poly with
  | None -> None
  | Some source -> of_source ?fiber_volume ?pilot_samples rng source poly ~keep

let naive_projection_sample rng source ~keep params =
  Option.map (fun x -> Vec.keep x keep) (Observable.sample source rng params)
