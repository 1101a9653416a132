module Plan = Scdb_plan.Plan
module Progress = Scdb_progress.Progress
module Json = Scdb_json.Json

let tag = Observable.tag

type prepared = { plan : Plan.t; pieces : Convex_obs.prepared list }

let prepare ?(config = Convex_obs.practical_config) ~gamma ~eps ~delta ~task rng r =
  let kept = Convex_obs.prepare_tuples ~config rng r in
  let dim = Relation.dim r in
  Plan_build.node_of_tuples ~config ~eps ~delta ~dim (List.map fst kept)
  |> Option.map (fun node ->
         { plan = Plan.finalize ~gamma ~eps ~delta ~task node; pieces = List.map snd kept })

let observe_tuples ?(config = Convex_obs.practical_config) rng r =
  List.map (fun (_, p) -> Convex_obs.observe p) (Convex_obs.prepare_tuples ~config rng r)

let observe { plan; pieces } =
  (Scdb_vm.Rewrite.observables plan (Array.of_list pieces)).(plan.Plan.root.Plan.id)

let optimize { plan; pieces } =
  { plan = Scdb_vm.Rewrite.optimize plan (Array.of_list pieces); pieces }

let observable_of_relation ?config ~gamma ~eps ~delta ~task rng r =
  prepare ?config ~gamma ~eps ~delta ~task rng r |> Option.map (fun p -> (p.plan, observe p))

let compiled_of_relation ?config ?optimize:(rewrite = false) ~gamma ~eps ~delta ~task rng r =
  prepare ?config ~gamma ~eps ~delta ~task rng r
  |> Option.map (fun p ->
         let { plan; pieces } = if rewrite then optimize p else p in
         (plan, Scdb_vm.Vm.compile ~plan ~pieces:(Array.of_list pieces) ()))

let arm plan = Progress.start ~rows:(Plan.work_budgets plan) ()

type row = {
  id : int;
  op : string;
  tags : string list;
  predicted : float;
  actual : float;
  eps : float;
  delta : float;
}

let ledger plan =
  let n = plan.Plan.node_count in
  let nodes = Array.make n plan.Plan.root in
  Plan.iter_nodes (fun (node : Plan.node) -> nodes.(node.Plan.id) <- node) plan;
  let actuals = Progress.rows () in
  let grants = Plan.error_budget plan in
  Array.init n (fun id ->
      let node = nodes.(id) in
      {
        id;
        op = Plan.op_name node.Plan.op;
        tags = node.Plan.tags;
        predicted = plan.Plan.budgets.(id);
        actual = (if id < Array.length actuals then Progress.row_work actuals.(id) else 0.0);
        eps = grants.(id).Plan.g_eps;
        delta = grants.(id).Plan.g_delta;
      })

let ratio r =
  if r.actual <= 0.0 then Float.nan
  else if r.predicted > 0.0 then r.actual /. r.predicted
  else Float.infinity

let delta_achieved r =
  match r.op with
  (* A stopping rule's δ does not depend on how many trials it ran: it
     holds the granted δ whenever the node ran. *)
  | "union" -> if Float.is_nan (ratio r) then Float.nan else r.delta
  (* An exact weight risks nothing: the whole grant is slack. *)
  | "dfk" when List.mem Plan.exact_weight r.tags -> 0.0
  | _ -> Scdb_plan.Cost.delta_at_work_ratio ~delta:r.delta ~ratio:(ratio r)

let slack r = r.delta -. delta_achieved r

type field = string * (row -> Json.t)

let id_op = [ ("id", fun r -> Json.Int r.id); ("op", fun r -> Json.Str r.op) ]

let work =
  [
    ("predicted", fun r -> Json.Num r.predicted);
    ("actual", fun r -> Json.Num r.actual);
    ("ratio", fun r -> Json.Num (ratio r));
  ]

let cost_fields = id_op @ work @ [ ("tags", fun r -> Json.strs r.tags) ]

let budget_fields =
  id_op
  @ [ ("eps", fun r -> Json.Num r.eps); ("delta", fun r -> Json.Num r.delta) ]
  @ work
  @ [
      ("delta_achieved", fun r -> Json.Num (delta_achieved r));
      ("slack", fun r -> Json.Num (slack r));
    ]

let to_json fields rows =
  Json.Arr
    (Array.to_list
       (Array.map (fun r -> Json.Obj (List.map (fun (k, f) -> (k, f r)) fields)) rows))

(* Text columns: header, left-aligned or not, and the cell, [None]
   where the row has nothing to show. *)
let columns =
  let num fmt v = if Float.is_finite v then Some (Printf.sprintf fmt v) else None in
  [
    ("id", false, fun r -> Some (string_of_int r.id));
    ("op", true, fun r -> Some r.op);
    ("predicted", false, fun r -> num "%.3g" r.predicted);
    ("actual", false, fun r -> num "%.3g" r.actual);
    ("ratio", false, fun r -> num "%.2f" (ratio r));
    ("eps", false, fun r -> num "%.3g" r.eps);
    ("delta", false, fun r -> num "%.3g" r.delta);
    ("achieved", false, fun r -> num "%.3g" (delta_achieved r));
    ("slack", false, fun r -> num "%.3g" (slack r));
    ("rewrites", true, fun r -> if r.tags = [] then None else Some (String.concat "," r.tags));
  ]

let to_text rows =
  let rows = Array.to_list rows in
  let shown =
    List.filter_map
      (fun (header, left, cell) ->
        let cells = List.map cell rows in
        if List.for_all Option.is_none cells then None
        else
          let cells = List.map (Option.value ~default:"-") cells in
          let width = List.fold_left (fun w c -> max w (String.length c)) 0 (header :: cells) in
          let pad c =
            if left then Printf.sprintf "%-*s" width c else Printf.sprintf "%*s" width c
          in
          Some (pad header :: List.map pad cells))
      columns
  in
  let rec transpose = function
    | [] | [] :: _ -> []
    | cols -> List.map List.hd cols :: transpose (List.map List.tl cols)
  in
  let line cells =
    let s = "  " ^ String.concat "  " cells in
    let n = ref (String.length s) in
    while s.[!n - 1] = ' ' do decr n done;
    String.sub s 0 !n ^ "\n"
  in
  String.concat "" ("per plan node (work = steps + trials):\n" :: List.map line (transpose shown))
