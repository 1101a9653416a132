(* Validator for spatialdb-profile/1 documents (see Scdb_profile) and
   for the profile/attribution surface of compiled-engine reports.

   Usage:
     validate_profile --profile FILE     standalone profile document
     validate_profile --report FILE      spatialdb-report/4 document

   Exits 1 with a message on the first violation.

   --profile checks:
   - schema must be "spatialdb-profile/1", mode counting|timing,
     engine vm|vm-opt;
   - the pcs table must cover every instruction (length == the
     "instructions" count — the symbolization contract is total, a pc
     the compiler emitted but the profiler cannot attribute is a bug),
     in strictly ascending pc order;
   - every count must be a non-negative integer and every ns finite and
     non-negative (a non-finite value serializes as null and fails
     the number check); counting mode must carry zero ns everywhere;
   - the per-pc counts must sum to total_instructions_executed, and the
     per-opcode and per-node rollups must both re-sum to the same
     totals (count and ns) — the three views are projections of one
     measurement, not independent estimates;
   - every pcs[].node must appear in the nodes[] rollup, and every
     pcs[].tag in its node's tags.

   --report checks:
   - schema must be "spatialdb-report/4" with an "engine" argument;
   - every cost_attribution row must carry a "tags" array;
   - under a compiled engine (vm, vm-opt) the "profile" block must be
     present and pass all the --profile checks above, and under vm-opt
     at least one attribution row must carry a rewrite tag (the
     optimizer fired on the Figure 1 fixtures; a tagless vm-opt report
     means the symbolization table lost the provenance).

   `make ci` runs both forms on fresh smoke artifacts. *)

module J = Scdb_json.Json

let count k row =
  let c = J.field k J.int row in
  if c < 0 then J.fail "%s is negative" k;
  c

let ns row =
  let x = J.field "ns" J.num row in
  if x < 0.0 then J.fail "ns is negative";
  x

let check_profile doc =
  J.schema "spatialdb-profile/1" doc;
  let engine = J.field "engine" J.str doc in
  if engine <> "vm" && engine <> "vm-opt" then J.fail "unexpected engine %S" engine;
  let mode = J.field "mode" J.str doc in
  if mode <> "counting" && mode <> "timing" then J.fail "unexpected mode %S" mode;
  let instructions = count "instructions" doc in
  let total_exec = count "total_instructions_executed" doc in
  let total_ns = J.field "total_profiled_ns" J.num doc in
  if total_ns < 0.0 then J.fail "total_profiled_ns is negative";
  let node r = (count "id" r, J.field "tags" (J.list J.str) r, count "instructions" r, ns r) in
  let nodes = J.field "nodes" (J.list node) doc in
  let last_pc = ref (-1) in
  let pc r =
    let pc = count "pc" r and node = count "node" r in
    if pc <= !last_pc then J.fail "pc %d breaks ascending pc order (after %d)" pc !last_pc;
    last_pc := pc;
    let tags =
      match List.find_opt (fun (id, _, _, _) -> id = node) nodes with
      | Some (_, tags, _, _) -> tags
      | None -> J.fail "maps to node %d which is absent from the nodes rollup" node
    in
    (match J.field_opt "tag" J.str r with
    | Some t when not (List.mem t tags) ->
        J.fail "carries tag %S but node %d's rollup does not" t node
    | _ -> ());
    let n = ns r in
    if mode = "counting" && n <> 0.0 then J.fail "%g ns in counting mode (should be 0)" n;
    (count "count" r, n)
  in
  let pcs = J.field "pcs" (J.list pc) doc in
  (* Totality: one row per emitted instruction. *)
  if List.length pcs <> instructions then
    J.fail "pcs table has %d rows but the program has %d instructions (missing pcs)"
      (List.length pcs) instructions;
  let opcodes = J.field "opcodes" (J.list (fun r -> (count "count" r, ns r))) doc in
  let check_sums what rows =
    let c = List.fold_left (fun acc (c, _) -> acc + c) 0 rows in
    let n = List.fold_left (fun acc (_, n) -> acc +. n) 0.0 rows in
    if c <> total_exec then
      J.fail "per-%s counts sum to %d but total_instructions_executed is %d" what c total_exec;
    if Float.abs (n -. total_ns) > 0.5 then
      J.fail "per-%s ns sum to %g but total_profiled_ns is %g" what n total_ns
  in
  check_sums "pc" pcs;
  check_sums "opcode" opcodes;
  check_sums "node" (List.map (fun (_, _, c, n) -> (c, n)) nodes);
  engine

let check_report doc =
  J.schema "spatialdb-report/4" doc;
  let engine = J.field "args" (J.field "engine" J.str) doc in
  let tagged row = J.field "tags" (J.list J.str) row <> [] in
  let attribution = J.field "cost_attribution" (J.list tagged) doc in
  if attribution = [] then J.fail "cost_attribution is empty";
  let profile = J.field_opt "profile" check_profile doc in
  match (engine, profile) with
  | "interp", None -> ()
  | "interp", Some _ -> J.fail "interp report carries a profile block"
  | ("vm" | "vm-opt"), None -> J.fail "%s report is missing its profile block" engine
  | ("vm" | "vm-opt"), Some p_engine ->
      if p_engine <> engine then J.fail "report engine %s but profile engine %s" engine p_engine;
      if engine = "vm-opt" && not (List.mem true attribution) then
        J.fail "vm-opt report has no attribution row with rewrite tags"
  | e, _ -> J.fail "unexpected args.engine %S" e

let () =
  let fail m =
    prerr_endline ("validate_profile: " ^ m);
    exit 1
  in
  let check, file =
    match List.tl (Array.to_list Sys.argv) with
    | [ "--profile"; f ] -> ((fun doc -> ignore (check_profile doc)), f)
    | [ "--report"; f ] -> (check_report, f)
    | _ -> fail "usage: validate_profile (--profile | --report) FILE"
  in
  match J.of_file file check with
  | Ok () -> Printf.printf "validate_profile: %s OK\n" file
  | Error m -> fail m
