module Plan = Scdb_plan.Plan

type t = { root : Observable.t; params : Params.t }

let compile ?(optimize = false) ~(plan : Plan.t) ~pieces () =
  match plan.Plan.task with
  | Plan.Volume -> Error "only sampling plans run here"
  | Plan.Sample _ | Plan.Report _ -> (
      match
        let plan = if optimize then Rewrite.optimize plan pieces else plan in
        {
          root = (Rewrite.observables plan pieces).(plan.Plan.root.Plan.id);
          params = Params.make ~gamma:plan.Plan.gamma ~eps:plan.Plan.eps ~delta:plan.Plan.delta ();
        }
      with
      | t -> Ok t
      | exception Invalid_argument m -> Error m)

let sample_many t rng ~n = Observable.sample_many t.root rng t.params ~n
