(* Validator for spatialdb-plan/1 documents (see Scdb_plan.Plan) and
   for the predicted-vs-actual attribution a progressed run prints.

   Usage: validate_plan --plan FILE [--report FILE]

   Exits 1 with a message on the first violation:
   - the plan file must parse as schema spatialdb-plan/1 through
     Scdb_plan.Plan.of_json (which checks node-id contiguity, child
     structure and attribute sanity), with node_count >= 1 and a
     positive finite total_work;
   - every node budget must be finite and non-negative, and the root
     budget positive;
   - with --report, the report document must be spatialdb-report/4 and
     every cost_attribution row for a node that ran (actual > 0) must
     carry a finite positive ratio — a NaN serializes as null and
     fails, and a missing ratio key fails;
   - with both, the plan the report embeds (the plan that ran) must
     have the same node ids, ops and dims as the plan file (the plan
     `spatialdb explain` predicted).

   `make ci` runs this on fresh `spatialdb explain` plans and reports
   of the Figure 1 triangle and of a union with a lower-dimensional
   tuple. *)

module J = Scdb_trace.Json_min
module Plan = Scdb_plan.Plan

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("validate_plan: " ^ m); exit 1) fmt

let get name = function Some v -> v | None -> fail "missing field %s" name

let num name v =
  match J.to_float v with
  | Some x when Float.is_finite x -> x
  | _ -> fail "field %s is not a finite number" name

let read_file file =
  let ic = try open_in file with Sys_error m -> fail "%s" m in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let parse_plan file doc =
  match Plan.of_json doc with Ok p -> p | Error m -> fail "%s: %s" file m

let check_plan file =
  let doc =
    try J.parse (read_file file) with J.Parse_error m -> fail "%s: invalid JSON: %s" file m
  in
  let plan = parse_plan file doc in
  if plan.Plan.node_count < 1 then fail "%s: empty plan" file;
  if not (Float.is_finite plan.Plan.total_work && plan.Plan.total_work > 0.0) then
    fail "%s: total_work %g is not finite positive" file plan.Plan.total_work;
  Plan.iter_nodes
    (fun n ->
      let b = plan.Plan.budgets.(n.Plan.id) in
      if not (Float.is_finite b && b >= 0.0) then
        fail "%s: node %d budget %g is not finite non-negative" file n.Plan.id b)
    plan;
  if plan.Plan.budgets.(plan.Plan.root.Plan.id) <= 0.0 then
    fail "%s: root budget is not positive" file;
  Printf.printf "validate_plan: %s ok (%d nodes, total predicted work %g)\n" file
    plan.Plan.node_count plan.Plan.total_work;
  (file, plan)

let check_report file =
  let doc =
    try J.parse (read_file file) with J.Parse_error m -> fail "%s: invalid JSON: %s" file m
  in
  (match J.to_string (get "schema" (J.member "schema" doc)) with
  | Some "spatialdb-report/4" -> ()
  | Some other -> fail "%s: unexpected schema %S" file other
  | None -> fail "%s: schema is not a string" file);
  let rows =
    match J.to_list (get "cost_attribution" (J.member "cost_attribution" doc)) with
    | Some l -> l
    | None -> fail "%s: cost_attribution is not an array" file
  in
  if rows = [] then fail "%s: cost_attribution is empty" file;
  let executed = ref 0 in
  List.iteri
    (fun i row ->
      let ctx = Printf.sprintf "cost_attribution[%d]" i in
      ignore (num (ctx ^ ".id") (get (ctx ^ ".id") (J.member "id" row)));
      ignore (num (ctx ^ ".predicted") (get (ctx ^ ".predicted") (J.member "predicted" row)));
      let actual = num (ctx ^ ".actual") (get (ctx ^ ".actual") (J.member "actual" row)) in
      if actual > 0.0 then begin
        incr executed;
        let ratio = num (ctx ^ ".ratio") (get (ctx ^ ".ratio") (J.member "ratio" row)) in
        if ratio <= 0.0 then fail "%s: %s.ratio is %g (need > 0)" file ctx ratio
      end)
    rows;
  if !executed = 0 then fail "%s: no cost_attribution row has actual > 0" file;
  Printf.printf "validate_plan: %s attribution ok (%d rows, %d executed)\n" file
    (List.length rows) !executed;
  (file, parse_plan (file ^ " plan") (get "plan" (J.member "plan" doc)))

(* Node ids, ops and dims in id order: the shape explain predicted must
   be the shape that ran. *)
let shape plan =
  let nodes = ref [] in
  Plan.iter_nodes
    (fun n -> nodes := (n.Plan.id, Plan.op_name n.Plan.op, n.Plan.dim) :: !nodes)
    plan;
  List.sort compare !nodes

let check_same_plan (plan_file, predicted) (report_file, ran) =
  let show (id, op, dim) = Printf.sprintf "#%d %s dim=%d" id op dim in
  let render nodes = String.concat ", " (List.map show nodes) in
  let a = shape predicted and b = shape ran in
  if a <> b then
    fail "%s plans [%s] but %s ran [%s]" plan_file (render a) report_file (render b);
  Printf.printf "validate_plan: %s matches the plan %s ran (%d nodes)\n" plan_file report_file
    (List.length a)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec after flag = function
    | f :: v :: _ when f = flag -> Some v
    | _ :: rest -> after flag rest
    | [] -> None
  in
  let plan = after "--plan" args in
  let report = after "--report" args in
  if plan = None && report = None then
    fail "usage: validate_plan --plan FILE [--report FILE]";
  match (Option.map check_plan plan, Option.map check_report report) with
  | Some predicted, Some ran -> check_same_plan predicted ran
  | _ -> ()
