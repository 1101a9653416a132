module Tel = Scdb_telemetry.Telemetry
module Trace = Scdb_trace.Trace
module Probe = Scdb_obs.Probe

let tel_samples = Tel.Counter.make "union.samples"
let trial = Probe.trial ~counter:"union.trials" ()
let tel_first_index_miss = Tel.Counter.make "union.first_index_miss"
let tel_child_failures = Tel.Counter.make "union.child_failures"
let tel_vol_calls = Tel.Counter.make "union.volume.calls"
let tel_vol_trials = Tel.Counter.make "union.volume.trials"
let tel_vol_accepted = Tel.Counter.make "union.volume.accepted"
let tel_accept_rate = Tel.Histogram.make "union.volume.acceptance_rate"

let exhausted =
  Probe.warning ~counter:"union.exhausted" "union.exhausted" (fun trials operands ->
      [ Probe.int "trials" trials; Probe.int "operands" operands ])

(* All trials rejecting while Σ μ̂ᵢ > 0 means the estimate degrades to
   0.0 with no statistical backing (acceptance is ≥ 1/m in
   expectation) — a generator failure, not a small volume. *)
let zero_acceptance =
  Probe.warning ~counter:"union.volume.zero_acceptance" "union.volume.zero_acceptance"
    (fun trials operands total ->
      [ Probe.int "trials" trials; Probe.int "operands" operands; Probe.float "total" total ])

(* Shared with the static cost model: see [Scdb_plan.Cost]. *)
let trials_for ~m ~delta = Scdb_plan.Cost.union_trials ~m ~delta

(* What a draw at one (γ,ε,δ) needs: the child weights at the ε/3,
   δ/(4m) grant, whether they are all zero, the children's parameters
   and the trial budget. *)
type draw_setup = {
  params : Params.t;
  mu : float array;
  empty : bool;
  child : Params.t;
  trials : int;
}

let union children =
  if children = [] then invalid_arg "Union.union: empty list";
  let dim = Observable.dim (List.hd children) in
  List.iter
    (fun c -> if Observable.dim c <> dim then invalid_arg "Union.union: dimension mismatch")
    children;
  let children = Array.of_list (List.map Observable.with_cached_volume children) in
  let m = Array.length children in
  let relation =
    Array.fold_left
      (fun acc c ->
        match (acc, Observable.relation c) with
        | Some r, Some rc -> Some (Relation.union r rc)
        | _ -> None)
      (Observable.relation children.(0))
      (Array.sub children 1 (m - 1))
  in
  let mem x =
    let i = ref 0 in
    while !i < m && not (Observable.mem children.(!i) x) do
      incr i
    done;
    !i < m
  in
  (* j(x) = j: no operand before j contains x, and j does. *)
  let first_index_is x j =
    let i = ref 0 in
    while !i < j && not (Observable.mem children.(!i) x) do
      incr i
    done;
    !i = j && Observable.mem children.(j) x
  in
  let volumes rng ~gamma ~eps ~delta =
    Array.map (fun c -> Observable.volume c rng ~gamma ~eps ~delta) children
  in
  (* The draw setup of the last parameters seen; a draw under any other
     parameters value works its own out again (the children's weights
     come from their volume caches then). *)
  let last = ref None in
  let setup rng params =
    match !last with
    | Some s when s.params == params -> s
    | _ ->
        let gamma = Params.gamma params and delta = Params.delta params in
        let eps3, sub_delta = Scdb_plan.Cost.child_grant ~m ~eps:(Params.eps params) ~delta in
        let mu = volumes rng ~gamma ~eps:eps3 ~delta:sub_delta in
        let s =
          {
            params;
            mu;
            empty = Array.for_all (fun v -> v <= 0.0) mu;
            child = Params.third_eps params;
            trials = trials_for ~m ~delta;
          }
        in
        last := Some s;
        s
  in
  let draw rng params =
    Tel.Counter.incr tel_samples;
    Trace.add_attr_int "operands" m;
    let s = setup rng params in
    if s.empty then None
    else begin
      let mu = s.mu and trials = s.trials in
      let left = ref trials and point = ref None in
      while Option.is_none !point && !left > 0 do
        Probe.trials trial 1;
        let j = Rng.categorical rng mu in
        (match Observable.sample children.(j) rng s.child with
        | None -> Tel.Counter.incr tel_child_failures
        | Some x as drawn ->
            if first_index_is x j then point := drawn
            else Tel.Counter.incr tel_first_index_miss);
        decr left
      done;
      if Option.is_none !point then Probe.warn2 exhausted trials m;
      !point
    end
  in
  let sample rng params =
    if Trace.enabled () then
      Trace.span "union.sample"
        ~counters:
          [ "union.trials"; "union.first_index_miss"; "union.child_failures"; "union.exhausted" ]
        (fun () -> draw rng params)
    else draw rng params
  in
  let volume rng ~gamma ~eps ~delta =
    (* Karp–Luby estimator: μ(∪) = (Σ μ̂ᵢ) · P[trial accepted].  The
       acceptance probability is at least 1/m, but the stopping rule
       spends trials in proportion to the acceptance it observes. *)
    Trace.span "union.volume"
      ~counters:[ "union.volume.trials"; "union.volume.accepted" ]
    @@ fun () ->
    Tel.Counter.incr tel_vol_calls;
    Trace.add_attr_int "operands" m;
    Trace.add_attr_float "eps" eps;
    Trace.add_attr_float "delta" delta;
    let eps3, sub_delta = Scdb_plan.Cost.child_grant ~m ~eps ~delta in
    let mu = volumes rng ~gamma ~eps:eps3 ~delta:sub_delta in
    let total = Array.fold_left ( +. ) 0.0 mu in
    if total <= 0.0 then 0.0
    else begin
      (* The caller's γ flows into the child generators so that the
         acceptance trials run on the same grid the sample path uses —
         a fixed γ here would make the Karp–Luby trials and the
         generator disagree on the discretization. *)
      let params = Params.make ~gamma ~eps:eps3 ~delta:(delta /. 4.0) () in
      let trial r =
        let j = Rng.categorical r mu in
        match Observable.sample children.(j) r params with
        | None -> false
        | Some x -> first_index_is x j
      in
      let { Chernoff.trials = n; hits = accepted; estimate } =
        Chernoff.estimate_fraction_stopping rng ~eps:eps3 ~delta:(delta /. 4.0)
          ~p_floor:(1.0 /. float_of_int m) trial
      in
      Tel.Counter.add tel_vol_trials n;
      Tel.Counter.add tel_vol_accepted accepted;
      Tel.Histogram.observe tel_accept_rate (float_of_int accepted /. float_of_int n);
      if accepted = 0 then Probe.warn3 zero_acceptance n m total;
      total *. estimate
    end
  in
  Observable.make ?relation ~dim ~mem ~sample ~volume ()

let union2 a b = union [ a; b ]
