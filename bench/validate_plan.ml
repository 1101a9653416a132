(* Validator for spatialdb-plan/1 documents (see Scdb_plan.Plan) and
   for the predicted-vs-actual attribution a progressed run prints.

   Usage: validate_plan --plan FILE [--report FILE]

   Exits 1 with a message on the first violation:
   - the plan file must parse as schema spatialdb-plan/1 through
     Scdb_plan.Plan.of_json (which checks node-id contiguity, child
     structure, attribute sanity and that every number is finite),
     with a positive total_work;
   - every node budget must be non-negative, and the root budget
     positive;
   - with --report, the report document must be spatialdb-report/4 and
     every cost_attribution row for a node that ran (actual > 0) must
     carry a finite positive ratio — a non-finite ratio serializes as
     null and fails, and a missing ratio key fails;
   - with both, the plan the report embeds (the plan that ran) must
     have the same node ids, ops and dims as the plan file (the plan
     `spatialdb explain` predicted).

   `make ci` runs this on fresh `spatialdb explain` plans and reports
   of the Figure 1 triangle and of a union with a lower-dimensional
   tuple. *)

module J = Scdb_json.Json
module Plan = Scdb_plan.Plan

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("validate_plan: " ^ m); exit 1) fmt
let ok = function Ok v -> v | Error m -> fail "%s" m
let plan_of doc = match Plan.of_json doc with Ok p -> p | Error m -> J.fail "%s" m

let check_plan file =
  let plan = ok (J.of_file file plan_of) in
  if plan.Plan.total_work <= 0.0 then
    fail "%s: total_work %g is not positive" file plan.Plan.total_work;
  Plan.iter_nodes
    (fun n ->
      let b = plan.Plan.budgets.(n.Plan.id) in
      if b < 0.0 then fail "%s: node %d budget %g is negative" file n.Plan.id b)
    plan;
  if plan.Plan.budgets.(plan.Plan.root.Plan.id) <= 0.0 then
    fail "%s: root budget is not positive" file;
  Printf.printf "validate_plan: %s ok (%d nodes, total predicted work %g)\n" file
    plan.Plan.node_count plan.Plan.total_work;
  (file, plan)

let check_report file =
  let row r =
    ignore (J.field "id" J.int r);
    ignore (J.field "predicted" J.num r);
    let actual = J.field "actual" J.num r in
    if actual > 0.0 then begin
      let ratio = J.field "ratio" J.num r in
      if ratio <= 0.0 then J.fail "ratio is %g (need > 0)" ratio
    end;
    actual > 0.0
  in
  let decode doc =
    J.schema "spatialdb-report/4" doc;
    let rows = J.field "cost_attribution" (J.list row) doc in
    if rows = [] then J.fail "cost_attribution is empty";
    if not (List.mem true rows) then J.fail "no cost_attribution row has actual > 0";
    (rows, J.field "plan" plan_of doc)
  in
  let rows, plan = ok (J.of_file file decode) in
  Printf.printf "validate_plan: %s attribution ok (%d rows, %d executed)\n" file
    (List.length rows)
    (List.length (List.filter Fun.id rows));
  (file, plan)

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
