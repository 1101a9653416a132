(* Shared with the static cost model: see [Scdb_plan.Cost]. *)
let runs_for ~delta = Scdb_plan.Cost.boost_runs ~delta

let median_volume rng ?gamma obs ~eps ~delta =
  let runs = runs_for ~delta in
  Scdb_diag.Diag.median
    (Array.init runs (fun _ -> Observable.volume obs rng ?gamma ~eps ~delta:0.25))

let boost_observable obs =
  {
    obs with
    Observable.volume = (fun rng ~gamma ~eps ~delta -> median_volume rng ~gamma obs ~eps ~delta);
  }
