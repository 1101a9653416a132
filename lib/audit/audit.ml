module Tel = Scdb_telemetry.Telemetry
module Trace = Scdb_trace.Trace
module Json = Scdb_json.Json
module Plan = Scdb_plan.Plan
module Cost = Scdb_plan.Cost
module Plan_exec = Scdb_gis.Plan_exec
module VE = Scdb_polytope.Volume_exact
module Volume = Scdb_sampling.Volume

let tel_replicates = Tel.Counter.make "audit.replicates"
let tel_hits = Tel.Counter.make "audit.hits"
let tel_misses = Tel.Counter.make "audit.misses"
let tel_failures = Tel.Counter.make "audit.estimation_failures"
let tel_rel_error = Tel.Histogram.make "audit.rel_error"
let tel_oracle_exact = Tel.Counter.make "audit.oracle.exact"
let tel_oracle_reference = Tel.Counter.make "audit.oracle.reference"

type oracle = Exact | Reference

let oracle_name = function Exact -> "exact" | Reference -> "reference"

type verdict = Pass | Fail | Inconclusive

let verdict_name = function
  | Pass -> "pass"
  | Fail -> "fail"
  | Inconclusive -> "inconclusive"

let clopper_pearson = Scdb_diag.Diag.clopper_pearson

(* ---------------- oracles ---------------- *)

let exact_truth ?(max_tuples = 16) relation =
  match VE.volume_relation ~max_tuples relation with
  | v -> Some v
  | exception VE.Unbounded -> None
  | exception Invalid_argument _ -> None

let estimate_once ~config ~gamma ~eps ~delta relation s =
  let rng = Rng.create s in
  match
    Plan_exec.observable_of_relation ~config ~gamma ~eps ~delta ~task:Plan.Volume rng
      relation
  with
  | None | (exception VE.Unbounded) -> None
  | Some (_plan, obs) -> (
      match Observable.volume obs ~gamma rng ~eps ~delta with
      | v -> Some v
      | exception Observable.Estimation_failed _ -> None)

let practical = Convex_obs.practical_config

let reference_config =
  (* 8x the practical per-phase budget; with the tightened (ε/10,δ/10)
     below this also inflates every runtime-sized trial count. *)
  match practical.Convex_obs.volume_budget with
  | Volume.Practical n -> { practical with Convex_obs.volume_budget = Volume.Practical (8 * n) }
  | _ -> practical

let reference_truth ?(gamma = Scdb_gis.Flight.gamma) ~eps ~delta ~seed relation =
  Trace.span "audit.reference_truth" @@ fun () ->
  estimate_once ~config:reference_config ~gamma ~eps:(eps /. 10.0) ~delta:(delta /. 10.0)
    relation seed

(* ---------------- coverage verification ---------------- *)

(* OCaml 5.1 runs at most 128 domains at once (Max_domains in
   caml/domain.h, 64-bit), the main domain among them. *)
let max_jobs = 127

type coverage = {
  runs : int;
  estimates : float array;
  hits : int;
  coverage : float;
  cp_low : float;
  cp_high : float;
  confidence : float;
  target : float;
  verdict : verdict;
}

let verify ?(jobs = 1) ?(confidence = 0.95) ~eps ~delta ~runs ~seed ~truth estimate =
  if runs < 1 then invalid_arg "Audit.verify: runs must be >= 1";
  if jobs < 1 || jobs > max_jobs then
    invalid_arg (Printf.sprintf "Audit.verify: jobs must lie in [1, %d]" max_jobs);
  if eps <= 0.0 || eps >= 1.0 || delta <= 0.0 || delta >= 1.0 then
    invalid_arg "Audit.verify: eps and delta must lie in (0,1)";
  if confidence <= 0.0 || confidence >= 1.0 then
    invalid_arg "Audit.verify: confidence must lie in (0,1)";
  if (not (Float.is_finite truth)) || truth <= 0.0 then
    invalid_arg "Audit.verify: truth must be finite and positive";
  let estimates = Array.make runs Float.nan in
  let replicate i =
    Tel.Counter.incr tel_replicates;
    match estimate (seed + i) with
    | Some v when Float.is_finite v ->
        (* Distinct replicate indices: the only cell of [estimates] a
           job domain writes is its own. *)
        estimates.(i) <- v;
        let rel = Float.abs (v -. truth) /. truth in
        Tel.Histogram.observe tel_rel_error rel;
        if rel <= eps then begin
          Tel.Counter.incr tel_hits;
          true
        end
        else begin
          Tel.Counter.incr tel_misses;
          false
        end
    | _ ->
        Tel.Counter.incr tel_failures;
        Tel.Counter.incr tel_misses;
        false
  in
  (* Job [j] of [k] runs replicates [j], [j + k], [j + 2k], … *)
  let job k j () =
    let h = ref 0 and i = ref j in
    while !i < runs do
      if replicate !i then incr h;
      i := !i + k
    done;
    !h
  in
  let k = Stdlib.min jobs runs in
  let hits =
    if k = 1 then job 1 0 ()
    else
      Array.init k (fun j -> Domain.spawn (job k j))
      |> Array.fold_left (fun acc d -> acc + Domain.join d) 0
  in
  let cp_low, cp_high = clopper_pearson ~confidence ~hits ~runs () in
  let target = 1.0 -. delta in
  let verdict =
    if cp_low >= target then Pass else if cp_high < target then Fail else Inconclusive
  in
  {
    runs;
    estimates;
    hits;
    coverage = float_of_int hits /. float_of_int runs;
    cp_low;
    cp_high;
    confidence;
    target;
    verdict;
  }

(* ---------------- whole-relation audits ---------------- *)

type t = {
  fingerprint : string;
  oracle : oracle;
  truth : float;
  truth_exact : Rational.t option;
  eps : float;
  delta : float;
  gamma : float;
  cov : coverage;
  ledger : Plan_exec.row array;
}

let ledger_pass ~config ~gamma ~eps ~delta ~seed relation =
  let rng = Rng.create seed in
  match
    Plan_exec.observable_of_relation ~config ~gamma ~eps ~delta ~task:Plan.Volume
      rng relation
  with
  | None -> [||]
  | Some (plan, obs) ->
      Plan_exec.arm plan;
      (match Observable.volume obs ~gamma rng ~eps ~delta with
      | (_ : float) -> ()
      | exception Observable.Estimation_failed _ -> ());
      let rows = Plan_exec.ledger plan in
      Scdb_progress.Progress.stop ();
      rows

let run ?(gamma = Scdb_gis.Flight.gamma) ?(jobs = 1) ?(confidence = 0.95) ?(oracle = `Auto)
    ?max_tuples ?walk_steps ?phase_samples ~eps ~delta ~runs ~seed relation =
  if Relation.is_syntactically_empty relation then Error "relation is empty"
  else begin
    (* Fault injection for the regression demo: overriding the mixing
       schedule or the per-phase sample budget starves the estimator
       without touching anything else, so a deliberately broken
       estimator meets an unchanged oracle. *)
    let config =
      match walk_steps with
      | None -> practical
      | Some n -> { practical with Convex_obs.walk_steps = Some n }
    in
    let config =
      match phase_samples with
      | None -> config
      | Some n -> { config with Convex_obs.volume_budget = Volume.Practical n }
    in
    let fingerprint = Relation.fingerprint relation in
    let truth =
      match oracle with
      | `Exact -> (
          match exact_truth ?max_tuples relation with
          | Some q -> Ok (Exact, Rational.to_float q, Some q)
          | None ->
              Error
                "no exact closed form (relation unbounded or too many tuples); use --oracle \
                 reference")
      | `Reference -> (
          match reference_truth ~gamma ~eps ~delta ~seed:(seed + runs) relation with
          | Some v when v > 0.0 -> Ok (Reference, v, None)
          | _ -> Error "reference oracle failed (relation empty, unbounded or lower-dimensional)")
      | `Auto -> (
          match exact_truth ?max_tuples relation with
          | Some q when Rational.sign q > 0 -> Ok (Exact, Rational.to_float q, Some q)
          | Some _ -> Error "relation has zero volume; nothing to audit"
          | None -> (
              match reference_truth ~gamma ~eps ~delta ~seed:(seed + runs) relation with
              | Some v when v > 0.0 -> Ok (Reference, v, None)
              | _ ->
                  Error
                    "no oracle applies (relation empty, unbounded or lower-dimensional)"))
    in
    match truth with
    | Error e -> Error e
    | Ok (_, tv, _) when not (Float.is_finite tv) ->
        Error (Printf.sprintf "exact volume %g lies beyond the float range; nothing to audit" tv)
    | Ok (_, tv, _) when tv <= 0.0 -> Error "relation has zero volume; nothing to audit"
    | Ok (used, truth, truth_exact) ->
        (match used with
        | Exact -> Tel.Counter.incr tel_oracle_exact
        | Reference -> Tel.Counter.incr tel_oracle_reference);
        let estimate s = estimate_once ~config ~gamma ~eps ~delta relation s in
        let cov =
          Trace.span "audit.verify" ~attrs:[ ("runs", string_of_int runs) ] @@ fun () ->
          verify ~jobs ~confidence ~eps ~delta ~runs ~seed ~truth estimate
        in
        let ledger = ledger_pass ~config ~gamma ~eps ~delta ~seed relation in
        Ok { fingerprint; oracle = used; truth; truth_exact; eps; delta; gamma; cov; ledger }
  end

(* ---------------- rendering ---------------- *)

let to_json ~vars ~formula ~seed ~jobs ~requested a =
  Json.to_string
    (Json.Obj
       [
         ("schema", Json.Str "spatialdb-audit/1");
         ( "args",
           Json.Obj
             [
               ("vars", Json.strs vars);
               ("formula", Json.Str formula);
               ("seed", Json.Int seed);
               ("runs", Json.Int a.cov.runs);
               ("jobs", Json.Int jobs);
               ("oracle", Json.Str requested);
               ("eps", Json.Num a.eps);
               ("delta", Json.Num a.delta);
               ("gamma", Json.Num a.gamma);
               ("confidence", Json.Num a.cov.confidence);
             ] );
         ("fingerprint", Json.Str a.fingerprint);
         ("oracle", Json.Str (oracle_name a.oracle));
         ("truth", Json.Num a.truth);
         ("truth_exact", Json.opt (fun q -> Json.Str (Rational.to_string q)) a.truth_exact);
         ("target", Json.Num a.cov.target);
         ("estimates", Json.nums (Array.to_list a.cov.estimates));
         ("hits", Json.Int a.cov.hits);
         ("coverage", Json.Num a.cov.coverage);
         ("cp_low", Json.Num a.cov.cp_low);
         ("cp_high", Json.Num a.cov.cp_high);
         ("verdict", Json.Str (verdict_name a.cov.verdict));
         ("error_budget", Plan_exec.to_json Plan_exec.budget_fields a.ledger);
       ])

let to_text a =
  let buf = Buffer.create 1024 in
  let add = Buffer.add_string buf in
  add
    (Printf.sprintf "audit: fingerprint %s, oracle %s, truth %s\n" a.fingerprint
       (oracle_name a.oracle)
       (match a.truth_exact with
       | Some q -> Printf.sprintf "%s (= %.9g)" (Rational.to_string q) a.truth
       | None -> Printf.sprintf "%.9g" a.truth));
  add
    (Printf.sprintf "audit: %d/%d replicates within eps=%g of truth (coverage %.4f)\n"
       a.cov.hits a.cov.runs a.eps a.cov.coverage);
  let refused = Array.fold_left (fun n v -> if Float.is_nan v then n + 1 else n) 0 a.cov.estimates in
  if refused > 0 then
    add
      (Printf.sprintf "audit: %d/%d replicates refused by the estimator (counted as misses)\n"
         refused a.cov.runs);
  add
    (Printf.sprintf
       "audit: %.0f%% Clopper-Pearson interval [%.4f, %.4f], contract target %.4f\n"
       (100.0 *. a.cov.confidence) a.cov.cp_low a.cov.cp_high a.cov.target);
  add (Printf.sprintf "audit: verdict %s\n" (String.uppercase_ascii (verdict_name a.cov.verdict)));
  if Array.length a.ledger > 0 then add (Plan_exec.to_text a.ledger);
  Buffer.contents buf
