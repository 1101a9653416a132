module Tel = Scdb_telemetry.Telemetry
module Trace = Scdb_trace.Trace
module Probe = Scdb_obs.Probe

let tel_samples = Tel.Counter.make "diff.samples"
let trial = Probe.trial ~counter:"diff.trials" ()
let tel_miss = Tel.Counter.make "diff.miss"
let tel_child_failures = Tel.Counter.make "diff.child_failures"
let tel_vol_calls = Tel.Counter.make "diff.volume.calls"

let exhausted =
  Probe.warning ~counter:"diff.exhausted" "diff.exhausted" (fun budget dim ->
      [ Probe.int "budget" budget; Probe.int "dim" dim ])

let diff ?(poly_degree = 3) a b =
  if Observable.dim a <> Observable.dim b then invalid_arg "Diff.diff: dimension mismatch";
  let dim = Observable.dim a in
  let a = Observable.with_cached_volume a in
  let relation = Observable.combine_relations Relation.diff a b in
  let mem x = Observable.mem a x && not (Observable.mem b x) in
  let sample rng params =
    Trace.span "diff.sample"
      ~counters:[ "diff.trials"; "diff.miss"; "diff.child_failures"; "diff.exhausted" ]
    @@ fun () ->
    Tel.Counter.incr tel_samples;
    let budget = Inter.budget_for ~dim ~poly_degree ~delta:(Params.delta params) in
    let rec attempt k =
      if k = 0 then begin
        Probe.warn2 exhausted budget dim;
        None
      end
      else begin
        Probe.trials trial 1;
        match Observable.sample a rng (Params.third_eps params) with
        | None ->
            Tel.Counter.incr tel_child_failures;
            attempt (k - 1)
        | Some x ->
            if Observable.mem b x then begin
              Tel.Counter.incr tel_miss;
              attempt (k - 1)
            end
            else Some x
      end
    in
    attempt budget
  in
  let volume rng ~gamma ~eps ~delta =
    Trace.span "diff.volume" @@ fun () ->
    Tel.Counter.incr tel_vol_calls;
    Trace.add_attr_float "eps" eps;
    Trace.add_attr_float "delta" delta;
    let eps2 = eps /. 2.0 in
    let mu_a = Observable.volume a rng ~gamma ~eps:eps2 ~delta:(delta /. 4.0) in
    let p_floor = Scdb_plan.Cost.poly_floor ~dim ~poly_degree in
    (* Same grid as the sample path: the caller's γ, not a fixed one. *)
    let params = Params.make ~gamma ~eps:eps2 ~delta:(delta /. 4.0) () in
    let draw r =
      match Observable.sample a r params with
      | Some x -> not (Observable.mem b x)
      | None -> false
    in
    let { Chernoff.estimate = fraction; _ } =
      Chernoff.estimate_fraction_stopping rng ~eps:eps2 ~delta:(delta /. 4.0) ~p_floor
        ~max_trials:Scdb_plan.Cost.fraction_trials_cap draw
    in
    mu_a *. fraction
  in
  Observable.make ?relation ~dim ~mem ~sample ~volume ()
