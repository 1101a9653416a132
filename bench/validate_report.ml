(* Validator for spatialdb-report/4 documents (see Scdb_gis.Report).

   Usage: validate_report FILE [--require-converged]

   Exits 1 with a message on the first violation:
   - schema must be "spatialdb-report/4";
   - the embedded trace must hold >= 10 events, every ts/dur finite and
     non-negative, ts non-decreasing (creation order);
   - the embedded plan must be schema spatialdb-plan/1 with a positive
     total_work;
   - the cost_attribution table must be non-empty and every row whose
     node actually ran (actual > 0) must carry a finite positive
     actual/predicted ratio (a non-finite ratio serializes as null and
     fails);
   - the audit block must carry a 16-hex-digit relation fingerprint and
     an error_budget table with one row per plan node, each granted
     eps/delta inside (0,1) (guards are exempt and serialize null);
   - the telemetry block must be schema spatialdb-telemetry/2;
   - diagnostics must be present with >= 4 chains, every R-hat and ESS
     finite (a NaN or infinite value serializes as null and fails the
     number check);
   - with --require-converged, the verdict must be positive.

   `make ci` runs this on a fresh report of the Figure 1 triangle. *)

module J = Scdb_json.Json

let check ~require_converged doc =
  J.schema "spatialdb-report/4" doc;
  let last_ts = ref neg_infinity in
  let event ev =
    let ts = J.field "ts" J.num ev in
    let dur = J.field "dur" J.num ev in
    if ts < 0.0 then J.fail "negative ts %g" ts;
    if dur < 0.0 then J.fail "negative dur %g" dur;
    if ts < !last_ts then J.fail "ts breaks monotonicity (%g < %g)" ts !last_ts;
    last_ts := ts
  in
  let n_events = List.length (J.field "trace" (J.field "traceEvents" (J.list event)) doc) in
  if n_events < 10 then J.fail "only %d trace events (need >= 10)" n_events;
  let plan p =
    J.schema "spatialdb-plan/1" p;
    let total_work = J.field "total_work" J.num p in
    if total_work <= 0.0 then J.fail "total_work is %g (need > 0)" total_work
  in
  J.field "plan" plan doc;
  let cost_row row =
    let actual = J.field "actual" J.num row in
    ignore (J.field "predicted" J.num row);
    if actual > 0.0 then begin
      let ratio = J.field "ratio" J.num row in
      if ratio <= 0.0 then J.fail "ratio is %g (need > 0)" ratio
    end
  in
  let n_nodes = List.length (J.field "cost_attribution" (J.list cost_row) doc) in
  if n_nodes = 0 then J.fail "cost_attribution is empty";
  (* Audit block: fingerprint + per-node error budget. *)
  let grant_row row =
    let e = J.field "eps" J.num row and d = J.field "delta" J.num row in
    if e <= 0.0 || e >= 1.0 then J.fail "eps is %g (need (0,1))" e;
    if d <= 0.0 || d >= 1.0 then J.fail "delta is %g (need (0,1))" d
  in
  let audit a =
    let fp = J.field "fingerprint" J.str a in
    if
      String.length fp <> 16
      || not (String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) fp)
    then J.fail "fingerprint %S is not 16 lowercase hex digits" fp;
    let rows = List.length (J.field "error_budget" (J.list grant_row) a) in
    if rows <> n_nodes then J.fail "error_budget has %d rows for %d plan nodes" rows n_nodes
  in
  J.field "audit" audit doc;
  J.field "telemetry" (J.schema "spatialdb-telemetry/2") doc;
  let diagnostics = function
    | J.Null -> J.fail "diagnostics is null"
    | d ->
        let chains = J.field "chains" J.int d in
        if chains < 4 then J.fail "only %d chains (need >= 4)" chains;
        let rhat = J.field "rhat" (J.list J.num) d in
        if rhat = [] then J.fail "rhat is empty";
        let ess chain = if J.field "ess" (J.list J.num) chain = [] then J.fail "empty ess" in
        let per_chain = List.length (J.field "per_chain" (J.list ess) d) in
        if per_chain <> chains then
          J.fail "per_chain has %d entries for %d chains" per_chain chains;
        if require_converged && not (J.field "converged" J.bool d) then
          J.fail "diagnostics report non-convergence";
        (chains, List.fold_left Float.max 0.0 rhat)
  in
  let chains, max_rhat = J.field "diagnostics" diagnostics doc in
  (n_events, n_nodes, chains, max_rhat)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let require_converged = List.mem "--require-converged" args in
  match List.filter (fun a -> a <> "--require-converged") args with
  | [ file ] -> (
      match J.of_file file (check ~require_converged) with
      | Ok (n_events, n_nodes, chains, max_rhat) ->
          Printf.printf
            "validate_report: %s ok (%d trace events, %d plan nodes, %d chains, max R-hat %.4f)\n"
            file n_events n_nodes chains max_rhat
      | Error m ->
          prerr_endline ("validate_report: " ^ m);
          exit 1)
  | _ ->
      prerr_endline "validate_report: usage: validate_report FILE [--require-converged]";
      exit 1
