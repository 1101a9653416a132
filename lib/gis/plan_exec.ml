module Plan = Scdb_plan.Plan
module Progress = Scdb_progress.Progress
module Json = Scdb_json.Json

let tag id (obs : Observable.t) =
  {
    obs with
    Observable.sample =
      (fun rng params -> Progress.with_node id (fun () -> obs.Observable.sample rng params));
    volume =
      (fun rng ~gamma ~eps ~delta ->
        Progress.with_node id (fun () -> obs.Observable.volume rng ~gamma ~eps ~delta));
  }

type prepared = { plan : Plan.t; pieces : Convex_obs.prepared list }

let prepare ?(config = Convex_obs.practical_config) ~gamma ~eps ~delta ~task rng r =
  let kept = Convex_obs.prepare_tuples ~config rng r in
  let dim = Relation.dim r in
  Plan_build.node_of_tuples ~config ~eps ~delta ~dim (List.map fst kept)
  |> Option.map (fun node ->
         { plan = Plan.finalize ~gamma ~eps ~delta ~task node; pieces = List.map snd kept })

let observe { plan; pieces } =
  let root = plan.Plan.root in
  match pieces with
  | [ piece ] -> tag root.Plan.id (Convex_obs.observe piece)
  | many ->
      let children =
        List.map2 (fun child p -> tag child.Plan.id (Convex_obs.observe p)) root.Plan.children many
      in
      tag root.Plan.id (Union.union children)

let compile ?(optimize = false) { plan; pieces } =
  Scdb_vm.Vm.compile ~optimize ~plan ~pieces:(Array.of_list pieces) ()

let observable_of_relation ?config ~gamma ~eps ~delta ~task rng r =
  prepare ?config ~gamma ~eps ~delta ~task rng r |> Option.map (fun p -> (p.plan, observe p))

let compiled_of_relation ?config ?optimize ~gamma ~eps ~delta ~task rng r =
  prepare ?config ~gamma ~eps ~delta ~task rng r
  |> Option.map (fun p -> (p.plan, compile ?optimize p))

let arm ?overrun_factor plan =
  let rows =
    Array.map (fun (id, label, budget) -> (id, label, budget)) (Plan.budget_rows plan)
  in
  Progress.start ?overrun_factor ~rows ()

type attribution_row = {
  id : int;
  op : string;
  predicted : float;
  actual : float;
  ratio : float;  (** [actual/predicted]; [nan] when the node never ran *)
  tags : string list;  (** rewrite provenance under the optimized engine *)
}

let attribution ?program plan =
  let actuals = Progress.rows () in
  let tags_of =
    match program with
    | None -> fun _ -> []
    | Some prog ->
        let table = Scdb_vm.Vm.rewrite_tags prog in
        fun id -> Option.value (List.assoc_opt id table) ~default:[]
  in
  Array.map
    (fun (id, op, predicted) ->
      let actual =
        if id < Array.length actuals then Progress.row_work actuals.(id) else 0.0
      in
      let ratio =
        if actual <= 0.0 then Float.nan
        else if predicted > 0.0 then actual /. predicted
        else Float.infinity
      in
      { id; op; predicted; actual; ratio; tags = tags_of id })
    (Plan.budget_rows plan)

let attribution_json rows =
  let row r =
    Json.Obj
      [
        ("id", Json.Int r.id);
        ("op", Json.Str r.op);
        ("predicted", Json.Num r.predicted);
        ("actual", Json.Num r.actual);
        ("ratio", Json.Num r.ratio);
        ("tags", Json.strs r.tags);
      ]
  in
  Json.Arr (Array.to_list (Array.map row rows))

type budget_row = {
  b_id : int;
  b_op : string;
  b_eps : float;
  b_delta : float;
  b_predicted : float;
  b_actual : float;
  b_ratio : float;
  b_delta_achieved : float;
  b_slack : float;
}

let budget_attribution plan (attr : attribution_row array) =
  let actuals = Hashtbl.create 16 in
  Array.iter (fun a -> Hashtbl.replace actuals a.id a) attr;
  Array.map
    (fun (g : Scdb_plan.Plan.budget_grant) ->
      let predicted, actual, ratio =
        match Hashtbl.find_opt actuals g.Scdb_plan.Plan.g_id with
        | Some a -> (a.predicted, a.actual, a.ratio)
        | None -> (Float.nan, Float.nan, Float.nan)
      in
      let achieved =
        if Float.is_nan g.Scdb_plan.Plan.g_delta then Float.nan
        else
          match g.Scdb_plan.Plan.g_op with
          (* A stopping rule's δ does not depend on how many trials it
             ran: it holds the granted δ whenever the node ran. *)
          | "union" | "inter" | "diff" ->
              if Float.is_nan ratio then Float.nan else g.Scdb_plan.Plan.g_delta
          | _ -> Scdb_plan.Cost.delta_at_work_ratio ~delta:g.Scdb_plan.Plan.g_delta ~ratio
      in
      {
        b_id = g.Scdb_plan.Plan.g_id;
        b_op = g.Scdb_plan.Plan.g_op;
        b_eps = g.Scdb_plan.Plan.g_eps;
        b_delta = g.Scdb_plan.Plan.g_delta;
        b_predicted = predicted;
        b_actual = actual;
        b_ratio = ratio;
        b_delta_achieved = achieved;
        b_slack = g.Scdb_plan.Plan.g_delta -. achieved;
      })
    (Scdb_plan.Plan.error_budget plan)

let budget_attribution_json rows =
  let row r =
    Json.Obj
      [
        ("id", Json.Int r.b_id);
        ("op", Json.Str r.b_op);
        ("eps", Json.Num r.b_eps);
        ("delta", Json.Num r.b_delta);
        ("predicted", Json.Num r.b_predicted);
        ("actual", Json.Num r.b_actual);
        ("ratio", Json.Num r.b_ratio);
        ("delta_achieved", Json.Num r.b_delta_achieved);
        ("slack", Json.Num r.b_slack);
      ]
  in
  Json.Arr (Array.to_list (Array.map row rows))

let budget_attribution_text rows =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "%4s  %-8s %10s %10s %8s %12s %12s\n" "id" "op" "eps" "delta" "ratio"
       "achieved" "slack");
  Array.iter
    (fun r ->
      let g v = if Float.is_nan v then "-" else Printf.sprintf "%.3g" v in
      Buffer.add_string buf
        (Printf.sprintf "%4d  %-8s %10s %10s %8s %12s %12s\n" r.b_id r.b_op (g r.b_eps)
           (g r.b_delta)
           (if Float.is_finite r.b_ratio then Printf.sprintf "%.2f" r.b_ratio else "-")
           (g r.b_delta_achieved) (g r.b_slack)))
    rows;
  Buffer.contents buf

let attribution_text rows =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "%4s  %-8s %14s %14s %8s  %s\n" "id" "op" "predicted" "actual" "ratio"
       "rewrites");
  Array.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "%4d  %-8s %14.3g %14.3g %8s  %s\n" r.id r.op r.predicted r.actual
           (if Float.is_finite r.ratio then Printf.sprintf "%.2f" r.ratio else "-")
           (match r.tags with [] -> "-" | tags -> String.concat "," tags)))
    rows;
  Buffer.contents buf
