(* Validator for spatialdb-audit/1 documents (see Scdb_audit.Audit)
   and the committed accuracy ledger.

   Usage: validate_audit --audit FILE [--check BASELINE]

   --audit FILE      a spatialdb-audit/1 document (written by
                     `spatialdb audit --out`): schema checked, runs >= 1,
                     the estimates array must have exactly `runs` entries,
                     hits must equal the number of estimates within
                     eps of truth and lie in [0, runs], coverage must
                     equal hits/runs, the Clopper-Pearson bracket must
                     satisfy 0 <= cp_low <= coverage <= cp_high <= 1,
                     the verdict must be consistent with the bracket and
                     the target (pass iff cp_low >= target, fail iff
                     cp_high < target, inconclusive otherwise), the
                     fingerprint must be 16 lowercase hex digits, truth
                     must be finite positive, and every error-budget row
                     must carry grants in (0,1) (guards exempt).

   --check BASELINE  additionally gate the fresh document against the
                     committed ledger (AUDIT_1.json): the relation
                     fingerprints must be equal (same canonical shape
                     under audit), the fresh verdict must not be "fail",
                     and the fresh coverage must reach the contract
                     target.  Inconclusive verdicts at small run counts
                     are allowed — the ledger itself is the
                     high-replicate record.

   Exits 1 with a message on the first violation. *)

module J = Scdb_json.Json

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("validate_audit: " ^ m); exit 1) fmt

let is_hex16 s =
  String.length s = 16
  && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) s

let in_unit what v = if v <= 0.0 || v >= 1.0 then J.fail "%s is %g (need (0,1))" what v

let validate doc =
  J.schema "spatialdb-audit/1" doc;
  let runs = J.field "args" (J.field "runs" J.int) doc in
  if runs < 1 then J.fail "args.runs is %d (need >= 1)" runs;
  let eps = J.field "args" (J.field "eps" J.num) doc in
  let delta = J.field "args" (J.field "delta" J.num) doc in
  in_unit "args.eps" eps;
  in_unit "args.delta" delta;
  let fp = J.field "fingerprint" J.str doc in
  if not (is_hex16 fp) then J.fail "fingerprint %S is not 16 lowercase hex digits" fp;
  (match J.field "oracle" J.str doc with
  | "exact" | "reference" -> ()
  | other -> J.fail "unknown oracle %S" other);
  let truth = J.field "truth" J.num doc in
  if truth <= 0.0 then J.fail "truth is %g (need > 0)" truth;
  let target = J.field "target" J.num doc in
  if Float.abs (target -. (1.0 -. delta)) > 1e-12 then
    J.fail "target %g does not match 1 - delta = %g" target (1.0 -. delta);
  (* A null estimate is a declared failure, hence a miss. *)
  let estimates = J.field "estimates" (J.list (J.nullable J.num)) doc in
  if List.length estimates <> runs then
    J.fail "%d estimates for %d runs" (List.length estimates) runs;
  (* Recompute the hit count from the raw estimates: a hit is an
     estimate within relative eps of truth. *)
  let recomputed =
    List.length
      (List.filter
         (function Some v -> Float.abs (v -. truth) <= eps *. truth | None -> false)
         estimates)
  in
  let hits = J.field "hits" J.int doc in
  if hits < 0 || hits > runs then J.fail "hits %d outside [0, %d]" hits runs;
  if hits <> recomputed then
    J.fail "hits %d but %d estimates are within eps of truth" hits recomputed;
  let coverage = J.field "coverage" J.num doc in
  let hit_rate = float_of_int hits /. float_of_int runs in
  if Float.abs (coverage -. hit_rate) > 1e-12 then
    J.fail "coverage %g does not match hits/runs = %g" coverage hit_rate;
  let cp_low = J.field "cp_low" J.num doc and cp_high = J.field "cp_high" J.num doc in
  if not (0.0 <= cp_low && cp_low <= coverage && coverage <= cp_high && cp_high <= 1.0) then
    J.fail "bracket violation: need 0 <= %g <= %g <= %g <= 1" cp_low coverage cp_high;
  let verdict = J.field "verdict" J.str doc in
  let expected =
    if cp_low >= target then "pass" else if cp_high < target then "fail" else "inconclusive"
  in
  if verdict <> expected then
    J.fail "verdict %S inconsistent with bracket [%g, %g] and target %g (expected %S)" verdict
      cp_low cp_high target expected;
  let budget_row row =
    if J.field "op" J.str row <> "guard" then begin
      in_unit "eps" (J.field "eps" J.num row);
      in_unit "delta" (J.field "delta" J.num row)
    end
  in
  if J.field "error_budget" (J.list budget_row) doc = [] then J.fail "error_budget is empty";
  (fp, verdict, coverage, target, runs, hits)

let load path = match J.of_file path validate with Ok v -> v | Error m -> fail "%s" m

let () =
  let rec parse_args acc = function
    | [] -> acc
    | "--audit" :: f :: rest -> parse_args (("audit", f) :: acc) rest
    | "--check" :: f :: rest -> parse_args (("check", f) :: acc) rest
    | a :: _ -> fail "unknown argument %s (usage: validate_audit --audit FILE [--check BASELINE])" a
  in
  let opts = parse_args [] (List.tl (Array.to_list Sys.argv)) in
  let audit_file =
    match List.assoc_opt "audit" opts with
    | Some f -> f
    | None -> fail "usage: validate_audit --audit FILE [--check BASELINE]"
  in
  let fp, verdict, coverage, target, runs, hits = load audit_file in
  (match List.assoc_opt "check" opts with
  | None -> ()
  | Some baseline_file ->
      let bfp, bverdict, _, _, _, _ = load baseline_file in
      if fp <> bfp then
        fail "fingerprint mismatch: fresh %s has %s, ledger %s has %s" audit_file fp
          baseline_file bfp;
      if bverdict = "fail" then
        fail "ledger %s records a failed contract — refresh it deliberately" baseline_file;
      if verdict = "fail" then
        fail "fresh audit %s fails the contract the ledger %s passed" audit_file baseline_file;
      if coverage < target then
        fail "fresh audit %s coverage %g below contract target %g" audit_file coverage target;
      Printf.printf "validate_audit: %s ok against ledger %s (fingerprint %s)\n" audit_file
        baseline_file fp);
  Printf.printf "validate_audit: %s ok (%d/%d hits, coverage %.4f, verdict %s)\n" audit_file
    hits runs coverage verdict
