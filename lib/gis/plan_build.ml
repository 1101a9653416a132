module Plan = Scdb_plan.Plan
module Volume = Scdb_sampling.Volume

let leaf_node ?(config = Convex_obs.practical_config) ~eps ~delta ~dim tuple =
  let method_ = Convex_obs.sampler_name config.Convex_obs.sampler in
  let volume_budget =
    match config.Convex_obs.volume_budget with Volume.Practical n -> Some n | Volume.Rigorous -> None
  in
  Plan.dfk ~eps ~delta ~dim ~method_ ~constraints:(List.length tuple) ?volume_budget ()

let node_of_tuples ?(config = Convex_obs.practical_config) ~eps ~delta ~dim = function
  | [] -> None
  | [ tuple ] -> Some (leaf_node ~config ~eps ~delta ~dim tuple)
  | many ->
      let sub_eps, sub_delta = Scdb_plan.Cost.child_grant ~m:(List.length many) ~eps ~delta in
      let children = List.map (leaf_node ~config ~eps:sub_eps ~delta:sub_delta ~dim) many in
      Some (Plan.union_ ~eps ~delta children)
