module Tel = Scdb_telemetry.Telemetry
module Trace = Scdb_trace.Trace
module Probe = Scdb_obs.Probe

let tel_samples = Tel.Counter.make "inter.samples"
let trial = Probe.trial ~counter:"inter.trials" ()
let tel_miss = Tel.Counter.make "inter.miss"
let tel_child_failures = Tel.Counter.make "inter.child_failures"
let tel_vol_calls = Tel.Counter.make "inter.volume.calls"

let exhausted =
  Probe.warning ~counter:"inter.exhausted" "inter.exhausted" (fun budget operands dim ->
      [ Probe.int "budget" budget; Probe.int "operands" operands; Probe.int "dim" dim ])

(* Shared with the static cost model: see [Scdb_plan.Cost]. *)
let budget_for ~dim ~poly_degree ~delta =
  Scdb_plan.Cost.rejection_budget ~dim ~poly_degree ~delta

let inter ?(poly_degree = 3) children =
  if children = [] then invalid_arg "Inter.inter: empty list";
  let dim = Observable.dim (List.hd children) in
  List.iter
    (fun c -> if Observable.dim c <> dim then invalid_arg "Inter.inter: dimension mismatch")
    children;
  let children = Array.of_list (List.map Observable.with_cached_volume children) in
  let m = Array.length children in
  let relation =
    Array.fold_left
      (fun acc c ->
        match (acc, Observable.relation c) with
        | Some r, Some rc -> Some (Relation.inter r rc)
        | _ -> None)
      (Observable.relation children.(0))
      (Array.sub children 1 (m - 1))
  in
  let mem x = Array.for_all (fun c -> Observable.mem c x) children in
  (* Index of the smallest operand by estimated volume. *)
  let smallest rng ~gamma ~eps ~delta =
    let mu = Array.map (fun c -> Observable.volume c rng ~gamma ~eps ~delta) children in
    let j = ref 0 in
    Array.iteri (fun i v -> if v < mu.(!j) then j := i) mu;
    (!j, mu.(!j))
  in
  let sample rng params =
    Trace.span "inter.sample"
      ~counters:[ "inter.trials"; "inter.miss"; "inter.child_failures"; "inter.exhausted" ]
    @@ fun () ->
    Tel.Counter.incr tel_samples;
    Trace.add_attr_int "operands" m;
    let gamma = Params.gamma params in
    let delta = Params.delta params in
    let eps3, sub_delta = Scdb_plan.Cost.child_grant ~m ~eps:(Params.eps params) ~delta in
    let j, _ = smallest rng ~gamma ~eps:eps3 ~delta:sub_delta in
    let budget = budget_for ~dim ~poly_degree ~delta in
    let rec attempt k =
      if k = 0 then begin
        Probe.warn3 exhausted budget m dim;
        None
      end
      else begin
        Probe.trials trial 1;
        match Observable.sample children.(j) rng (Params.third_eps params) with
        | None ->
            Tel.Counter.incr tel_child_failures;
            attempt (k - 1)
        | Some x ->
            if mem x then Some x
            else begin
              Tel.Counter.incr tel_miss;
              attempt (k - 1)
            end
      end
    in
    attempt budget
  in
  let volume rng ~gamma ~eps ~delta =
    (* μ(T) = μ(S_j) · P[x ∈ T | x ~ S_j], with the poly-relatedness
       promise lower-bounding the acceptance probability. *)
    Trace.span "inter.volume" @@ fun () ->
    Tel.Counter.incr tel_vol_calls;
    Trace.add_attr_float "eps" eps;
    Trace.add_attr_float "delta" delta;
    let eps2 = eps /. 2.0 in
    let j, mu_j = smallest rng ~gamma ~eps:eps2 ~delta:(delta /. float_of_int (4 * m)) in
    let p_floor = Scdb_plan.Cost.poly_floor ~dim ~poly_degree in
    (* Same grid as the sample path: the caller's γ, not a fixed one. *)
    let params = Params.make ~gamma ~eps:eps2 ~delta:(delta /. 4.0) () in
    let draw r =
      match Observable.sample children.(j) r params with Some x -> mem x | None -> false
    in
    let { Chernoff.estimate = fraction; _ } =
      Chernoff.estimate_fraction_stopping rng ~eps:eps2 ~delta:(delta /. 4.0) ~p_floor
        ~max_trials:Scdb_plan.Cost.fraction_trials_cap draw
    in
    mu_j *. fraction
  in
  Observable.make ?relation ~dim ~mem ~sample ~volume ()

let inter2 ?poly_degree a b = inter ?poly_degree [ a; b ]
