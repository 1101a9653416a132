(* spatialdb — command-line front end.

   Subcommands:
     sample       draw almost uniform points from a relation
     volume       estimate (or compute exactly) the volume of a relation
     qe           quantifier elimination (Fourier–Motzkin)
     reconstruct  hull-of-samples shape estimation (2-D output)
     report       one traced run as a self-contained JSON report
     audit        empirical check of the (eps,delta) volume contract
     replay       re-execute a flight record bit-for-bit
     explain      the costed query plan

   Formulas use the FO+LIN syntax of Scdb_constr.Parser, e.g.
     spatialdb volume -v x,y -f "0 <= x <= 2 /\\ 0 <= y <= 1 /\\ x + y <= 2.5"
*)

open Cmdliner
module Rng = Scdb_rng.Rng
module Tel = Scdb_telemetry.Telemetry
module Log = Scdb_log.Log
module Flightrec = Scdb_log.Flightrec
module Flight = Scdb_gis.Flight
module Json = Scdb_json.Json
module FM = Scdb_qe.Fourier_motzkin
module VE = Scdb_polytope.Volume_exact
module GV = Scdb_polytope.Gridvol
module H2 = Scdb_hull.Hull2d

(* Exit-code convention: 2 for usage/value errors (bad flag values,
   with the valid choices or range named), 1 for runtime errors (parse
   failures, empty relations, estimation failures), and cmdliner's own
   124 for malformed command lines (unknown flags/subcommands). *)
let usage_die what got valid =
  Printf.eprintf "spatialdb: unknown %s %S (expected one of: %s)\n" what got
    (String.concat ", " valid);
  exit 2

(* Usage error for a flag value outside its valid range. *)
let check_range flag ~range ok got =
  if not ok then begin
    Printf.eprintf "spatialdb: %s must be %s (got %s)\n" flag range got;
    exit 2
  end

let check_positive flag n = check_range flag ~range:">= 1" (n >= 1) (string_of_int n)
let check_nonnegative flag n = check_range flag ~range:">= 0" (n >= 0) (string_of_int n)
let check_at_least_one flag = Option.iter (check_positive flag)

let check_unit flag x =
  check_range flag ~range:"in (0, 1)" (x > 0.0 && x < 1.0) (Printf.sprintf "%g" x)

(* [arg], with [check] applied to its value before the command runs. *)
let checked check arg =
  Term.(
    const (fun v ->
        check v;
        v)
    $ arg)

(* ---------------- common arguments ---------------- *)

let vars_arg =
  let doc = "Comma-separated free variable names, fixing the dimension and coordinate order." in
  Arg.(required & opt (some string) None & info [ "v"; "vars" ] ~docv:"VARS" ~doc)

let formula_arg =
  let doc = "FO+LIN formula over the free variables (quantifier-free unless noted)." in
  Arg.(required & opt (some string) None & info [ "f"; "formula" ] ~docv:"FORMULA" ~doc)

let seed_arg =
  let doc = "PRNG seed (all commands are deterministic given the seed)." in
  Arg.(value & opt int 42 & info [ "seed" ] ~doc)

let eps_arg =
  let doc = "Relative accuracy parameter epsilon in (0,1)." in
  checked (check_unit "--eps") Arg.(value & opt float Flight.default_eps & info [ "eps" ] ~doc)

let delta_arg =
  let doc = "Failure probability delta in (0,1)." in
  checked (check_unit "--delta") Arg.(value & opt float Flight.default_delta & info [ "delta" ] ~doc)

let stats_arg =
  let doc =
    "Collect sampler telemetry (walk steps, acceptance rates, trial counts) and print the JSON \
     snapshot to stderr on exit.  Also enabled by setting \\$(b,SPATIALDB_STATS)."
  in
  Arg.(value & flag & info [ "stats" ] ~doc)

let stats_out_arg =
  let doc =
    "Write the telemetry JSON snapshot to $(docv) on exit (implies telemetry collection)."
  in
  Arg.(value & opt (some string) None & info [ "stats-out" ] ~docv:"FILE" ~doc)

let write_file path body =
  let oc = open_out path in
  output_string oc body;
  if body = "" || body.[String.length body - 1] <> '\n' then output_char oc '\n';
  close_out oc

(* [at_exit] so the snapshot also appears when a command dies through
   [or_die]/[exit 1] after having burned its sampling budget. *)
let enable_stats ?stats_out stats =
  if stats || stats_out <> None then begin
    Tel.set_enabled true;
    at_exit (fun () ->
        let snapshot = Json.to_string (Tel.dump ~only_nonzero:true ()) in
        if stats then prerr_string snapshot;
        Option.iter (fun file -> write_file file snapshot) stats_out)
  end

let or_die = function
  | Ok v -> v
  | Error m ->
      prerr_endline ("spatialdb: " ^ m);
      exit 1

let check_method m =
  if not (List.mem m Flight.methods) then usage_die "method" m Flight.methods

let check_engine e =
  if not (List.mem e Flight.engines) then usage_die "engine" e Flight.engines

let engine_arg =
  let doc =
    "Execution engine: $(b,interp) (the observable-combinator interpreter on the plan as \
     built, the default) or $(b,vm-opt) (the interpreter on the plan rewritten by the \
     cost-based pass — exact leaf draws, box rejection for cheap leaves, exact leaf weights \
     — same distribution, a stream of its own that replays bit-for-bit, typically the \
     fastest)."
  in
  Arg.(value & opt string "interp" & info [ "engine" ] ~docv:"ENGINE" ~doc)

let progress_arg =
  let doc =
    "Show a live progress line on stderr (per-plan-node percent complete and an ETA derived \
     from the cost model's predicted budgets; a $(b,plan.budget_overrun) warning is logged \
     when a node's actual work passes 4x its budget), and print the per-plan-node table \
     when the run finishes."
  in
  Arg.(value & flag & info [ "progress" ] ~doc)

let print_ledger plan = prerr_string Scdb_gis.Plan_exec.(to_text (ledger plan))

(* ---------------- observability flags ---------------- *)

type obs = { log_level : string option; log_out : string option }

let obs_term =
  let log_level_arg =
    let doc =
      "Enable structured JSON-lines logging (schema spatialdb-log/1) at $(docv): one of \
       $(b,debug), $(b,info), $(b,warn), $(b,error).  Events go to stderr unless \
       $(b,--log-out) is given.  Also enabled by setting \\$(b,SPATIALDB_LOG)."
    in
    Arg.(value & opt (some string) None & info [ "log-level" ] ~docv:"LEVEL" ~doc)
  in
  let log_out_arg =
    let doc =
      "Write structured log events to $(docv) as JSON lines (implies logging; default level \
       info)."
    in
    Arg.(value & opt (some string) None & info [ "log-out" ] ~docv:"FILE" ~doc)
  in
  let make log_level log_out = { log_level; log_out } in
  Term.(const make $ log_level_arg $ log_out_arg)

let setup_obs o =
  let level =
    match o.log_level with
    | None -> None
    | Some s -> (
        match Log.level_of_string s with
        | Some l -> Some l
        | None -> usage_die "log level" s [ "debug"; "info"; "warn"; "error" ])
  in
  if level <> None || o.log_out <> None then begin
    Log.set_enabled true;
    (match level with Some l -> Log.set_level l | None -> Log.set_level Log.Info);
    match o.log_out with
    | None -> Log.set_stderr true
    | Some file ->
        Log.open_file file;
        at_exit Log.close_file
  end

(* [-n]/[--samples]: how many points a run draws or a plan is
   budgeted for; [0] is allowed. *)
let samples_arg doc =
  checked (check_nonnegative "-n") Arg.(value & opt int 10 & info [ "n"; "samples" ] ~doc)

let parse_relation vars_s formula =
  let vars = Flight.split_vars vars_s in
  (vars, or_die (Flight.parse_relation ~vars formula))

(* ---------------- sample ---------------- *)

let sample_cmd =
  let n_arg = samples_arg "Number of points to draw." in
  let method_arg =
    let doc =
      "Per-piece sampler: $(b,walk) (hit-and-run on the rounded body, the default), $(b,grid) \
       (the paper's lattice walk) or $(b,rejection) (exact-uniform rejection from the bounding \
       box, best in low dimension)."
    in
    Arg.(value & opt string "walk" & info [ "method" ] ~docv:"METHOD" ~doc)
  in
  let diag_arg =
    let doc =
      "Run a multi-chain convergence check (per-chain ESS, split Gelman-Rubin R-hat) on the \
       relation's first convex piece and print the verdict to stderr."
    in
    Arg.(value & flag & info [ "diag" ] ~doc)
  in
  let chains_arg =
    checked (check_positive "--chains")
      Arg.(
        value & opt int 4
        & info [ "chains" ]
            ~doc:
              "Chains for the $(b,--diag) check; all chains step together on the batched \
               structure-of-arrays kernel, one split RNG stream per chain.")
  in
  let record_arg =
    let doc =
      "Write a flight record (spatialdb-flightrec/1: arguments, seed, bit-exact sample stream, \
       RNG lineage, telemetry, log tail) to $(docv), replayable with $(b,spatialdb replay)."
    in
    Arg.(value & opt (some string) None & info [ "record" ] ~docv:"FILE" ~doc)
  in
  let record_anomaly_arg =
    let doc =
      "Like $(b,--record), but the record is written only when the run logged warnings or \
       errors (sampler budget exhaustion, walker stalls, ...)."
    in
    Arg.(value & opt (some string) None & info [ "record-on-anomaly" ] ~docv:"FILE" ~doc)
  in
  let run vars_s formula n seed eps delta method_ engine stats stats_out diag chains o record
      record_anomaly progress =
    check_method method_;
    check_engine engine;
    enable_stats ?stats_out stats;
    setup_obs o;
    (* Anomaly detection rides on the warn/error counters, so make sure
       at least warn-level events are being counted (the ring buffer
       captures the tail regardless of sinks). *)
    if record_anomaly <> None && not (Log.would_log Log.Warn) then begin
      Log.set_enabled true;
      Log.set_level Log.Warn
    end;
    let args =
      { Flight.vars = Flight.split_vars vars_s; formula; n; seed; eps; delta; method_; engine }
    in
    let emit_points (outcome : Flight.outcome) =
      List.iter
        (fun p ->
          print_endline
            (String.concat "\t" (List.map (Printf.sprintf "%.6f") (Array.to_list p))))
        outcome.Flight.points
    in
    let outcome = or_die (Flight.run ~progress args) in
    if progress then print_ledger outcome.Flight.plan;
    let relation = outcome.Flight.relation and rng = outcome.Flight.rng in
    emit_points outcome;
    (match record with
    | Some path -> Flightrec.write path (Flight.to_flightrec args outcome)
    | None -> ());
    (match record_anomaly with
    | Some path when Log.warn_count () + Log.error_count () > 0 ->
        Flightrec.write path (Flight.to_flightrec args outcome);
        Printf.eprintf
          "spatialdb: anomaly detected (%d warning(s), %d error(s)); flight record written to \
           %s\n"
          (Log.warn_count ()) (Log.error_count ()) path
    | _ -> ());
    if diag then begin
      let dim = Relation.dim relation in
      match Relation.tuples relation with
      | [] -> prerr_endline "spatialdb: --diag: relation has no tuple"
      | tuple :: _ -> (
          let poly = Scdb_polytope.Polytope.of_tuple ~dim tuple in
          match Diag_run.run ~chains rng poly with
          | None -> prerr_endline "spatialdb: --diag: piece is empty or unbounded"
          | Some d ->
              Printf.eprintf "diag: chains=%d thin=%d kept/chain=%d\n" chains d.Diag_run.thin
                d.Diag_run.samples_per_chain;
              Printf.eprintf "diag: split R-hat per coord: %s\n"
                (String.concat " "
                   (List.map (Printf.sprintf "%.4f") (Array.to_list d.Diag_run.rhat)));
              Array.iteri
                (fun i (c : Diag_run.chain) ->
                  Printf.eprintf "diag: chain %d: ESS %s, acceptance %.3f, max stall %d\n" i
                    (String.concat " "
                       (List.map (Printf.sprintf "%.1f") (Array.to_list c.Diag_run.ess)))
                    c.Diag_run.acceptance_rate c.Diag_run.max_stall)
                d.Diag_run.chains;
              Printf.eprintf "diag: %s (%s)\n"
                (if d.Diag_run.verdict.Scdb_diag.Diag.converged then "converged"
                 else "NOT converged")
                d.Diag_run.verdict.Scdb_diag.Diag.reason)
    end
  in
  let doc = "Draw almost uniform points from the relation (Definition 2.2 generator)." in
  Cmd.v (Cmd.info "sample" ~doc)
    Term.(
      const run $ vars_arg $ formula_arg $ n_arg $ seed_arg $ eps_arg $ delta_arg $ method_arg
      $ engine_arg $ stats_arg $ stats_out_arg $ diag_arg $ chains_arg $ obs_term $ record_arg
      $ record_anomaly_arg $ progress_arg)

(* ---------------- volume ---------------- *)

(* A volume in (0, 10^-3) prints with 6 significant digits, which fixed
   decimals would round to zeros; the rest keep the mode's decimals. *)
let print_volume ~decimals v =
  if v > 0.0 && v < 1e-3 then Printf.printf "%.6g\n" v else Printf.printf "%.*f\n" decimals v

let volume_cmd =
  let mode_arg =
    let doc = "One of: exact (Lasserre + inclusion-exclusion), grid:GAMMA (fixed-dimension decomposition), sampling (DFK estimators)." in
    Arg.(value & opt string "sampling" & info [ "mode" ] ~doc)
  in
  let run vars_s formula mode seed eps delta stats stats_out o progress =
    enable_stats ?stats_out stats;
    setup_obs o;
    let _, relation = parse_relation vars_s formula in
    let rng = Rng.create seed in
    match mode with
    | "exact" -> (
        match VE.float_volume_relation relation with
        | v -> print_volume ~decimals:9 v
        | exception VE.Unbounded -> or_die (Error Flight.unbounded_relation)
        | exception Invalid_argument m -> or_die (Error m))
    | "sampling" -> (
        let prepared =
          or_die
            (Flight.prepare ~gamma:Flight.gamma ~eps ~delta ~task:Scdb_plan.Plan.Volume rng
               relation)
        in
        let plan = prepared.Scdb_gis.Plan_exec.plan in
        if progress then begin
          Scdb_gis.Plan_exec.arm plan;
          Scdb_progress.Progress.start_ticker ()
        end;
        match Observable.volume (Scdb_gis.Plan_exec.observe prepared) rng ~eps ~delta with
        | v ->
            if progress then begin
              Scdb_progress.Progress.stop ();
              print_ledger plan
            end;
            print_volume ~decimals:6 v
        | exception Observable.Estimation_failed m ->
            if progress then Scdb_progress.Progress.stop ();
            or_die (Error m))
    | m when String.length m > 5 && String.sub m 0 5 = "grid:" -> (
        let g = String.sub m 5 (String.length m - 5) in
        let gamma = Option.value ~default:Float.nan (float_of_string_opt g) in
        check_range "--mode grid:GAMMA" ~range:"a finite GAMMA > 0"
          (Float.is_finite gamma && gamma > 0.0)
          g;
        match GV.build ~gamma relation with
        | Some g -> print_volume ~decimals:6 (GV.volume g)
        | None -> or_die (Error "relation is empty or unbounded"))
    | m -> usage_die "mode" m [ "exact"; "sampling"; "grid:GAMMA" ]
  in
  let doc = "Volume of the relation: exact, grid-decomposed, or the paper's (eps,delta)-estimator." in
  Cmd.v (Cmd.info "volume" ~doc)
    Term.(
      const run $ vars_arg $ formula_arg $ mode_arg $ seed_arg $ eps_arg $ delta_arg $ stats_arg
      $ stats_out_arg $ obs_term $ progress_arg)

(* ---------------- qe ---------------- *)

let qe_cmd =
  let run vars_s formula =
    let vars = Flight.split_vars vars_s in
    let g = FM.eliminate (or_die (Flight.parse_formula ~vars formula)) in
    let name i = try List.nth vars i with _ -> Printf.sprintf "x%d" i in
    Format.printf "%a@." (Formula.pp_named name) g
  in
  let doc = "Eliminate quantifiers (Fourier-Motzkin with LP pruning) and print the result." in
  Cmd.v (Cmd.info "qe" ~doc) Term.(const run $ vars_arg $ formula_arg)

(* ---------------- reconstruct ---------------- *)

let reconstruct_cmd =
  let n_arg =
    checked (check_positive "-n")
      Arg.(value & opt int 200 & info [ "n"; "samples" ] ~doc:"Samples per convex piece.")
  in
  let run vars_s formula n seed stats stats_out =
    enable_stats ?stats_out stats;
    let vars, relation = parse_relation vars_s formula in
    if List.length vars <> 2 then or_die (Error "reconstruct prints polygons: exactly 2 variables required");
    let rng = Rng.create seed in
    let pieces =
      try Scdb_gis.Plan_exec.observe_tuples rng relation
      with VE.Unbounded -> or_die (Error Flight.unbounded_relation)
    in
    if pieces = [] then or_die (Error "no full-dimensional convex piece to reconstruct");
    let r = Reconstruct.union_estimate rng pieces ~n in
    List.iteri
      (fun i hull ->
        let pts = Array.to_list (Scdb_hull.Hull_lp.points hull) in
        let polygon = H2.hull pts in
        Printf.printf "# piece %d: %d hull vertices\n" i (List.length polygon);
        List.iter (fun v -> Printf.printf "%.6f\t%.6f\n" v.(0) v.(1)) polygon)
      r.Reconstruct.hulls
  in
  let doc = "Approximate the 2-D shape of the relation as union of sample hulls (Algorithms 3-5)." in
  Cmd.v (Cmd.info "reconstruct" ~doc)
    Term.(const run $ vars_arg $ formula_arg $ n_arg $ seed_arg $ stats_arg $ stats_out_arg)

(* ---------------- report ---------------- *)

let report_cmd =
  let n_arg = samples_arg "Number of points to draw." in
  let chains_arg =
    checked (check_positive "--chains")
      Arg.(value & opt int 4 & info [ "chains" ] ~doc:"Chains for the convergence check.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Write the report to $(docv) (default: stdout).")
  in
  let format_arg =
    let doc =
      "Output format: $(b,json) (the self-contained spatialdb-report/4 document, the default), \
       $(b,trace) (raw Chrome trace-event JSON, loadable in Perfetto) or $(b,tree) (indented \
       text rendering of the spans)."
    in
    Arg.(value & opt string "json" & info [ "format" ] ~docv:"FORMAT" ~doc)
  in
  let trace_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:"Additionally write the raw Chrome trace to $(docv).")
  in
  let run vars_s formula n seed eps delta chains out format trace_out o progress engine =
    setup_obs o;
    check_engine engine;
    if not (List.mem format [ "json"; "trace"; "tree" ]) then
      usage_die "format" format [ "json"; "trace"; "tree" ];
    let vars = Flight.split_vars vars_s in
    let report =
      or_die
        (Scdb_gis.Report.generate ~eps ~delta ~samples:n ~chains ~progress ~engine ~vars
           ~formula ~seed ())
    in
    let body =
      match format with
      | "json" -> report.Scdb_gis.Report.json
      | "trace" -> report.Scdb_gis.Report.chrome_trace
      | _ -> report.Scdb_gis.Report.text_tree
    in
    (match out with
    | None -> print_string body
    | Some file ->
        let oc = open_out file in
        output_string oc body;
        close_out oc);
    match trace_out with
    | None -> ()
    | Some file -> write_file file report.Scdb_gis.Report.chrome_trace
  in
  let doc =
    "Run the full pipeline with tracing, telemetry and convergence diagnostics enabled, and \
     emit one self-contained JSON report."
  in
  Cmd.v (Cmd.info "report" ~doc)
    Term.(
      const run $ vars_arg $ formula_arg $ n_arg $ seed_arg $ eps_arg $ delta_arg $ chains_arg
      $ out_arg $ format_arg $ trace_out_arg $ obs_term $ progress_arg $ engine_arg)

(* ---------------- audit ---------------- *)

let audit_cmd =
  let module A = Scdb_audit.Audit in
  let runs_arg =
    let doc =
      "Number of replicate estimates (seeds seed, seed+1, ...).  The Clopper-Pearson bracket \
       tightens with $(docv): at delta 0.1 and 95% confidence a strict pass needs >= 36 \
       all-hit replicates."
    in
    checked (check_positive "--runs") Arg.(value & opt int 40 & info [ "runs" ] ~docv:"N" ~doc)
  in
  let jobs_arg =
    let doc =
      Printf.sprintf
        "Deal the replicates round-robin across $(docv) domains (at most %d, the runtime's \
         domain cap; surplus jobs beyond $(b,--runs) are not started).  Replicate streams \
         depend only on their seed, so the estimates, the verdict and the telemetry counts \
         are identical whatever $(docv) is."
        A.max_jobs
    in
    checked
      (fun k ->
        check_range "--jobs"
          ~range:(Printf.sprintf "in [1, %d]" A.max_jobs)
          (k >= 1 && k <= A.max_jobs) (string_of_int k))
      Arg.(value & opt int 1 & info [ "jobs" ] ~docv:"K" ~doc)
  in
  let oracle_arg =
    let doc =
      "Ground-truth oracle: $(b,exact) (rational volumes by Lasserre recursion with \
       inclusion-exclusion; errors when no closed form applies), $(b,reference) (one \
       high-budget run at eps/10, delta/10) or $(b,auto) (exact when possible, else \
       reference — the default)."
    in
    Arg.(value & opt string "auto" & info [ "oracle" ] ~docv:"ORACLE" ~doc)
  in
  let confidence_arg =
    let doc = "Confidence level of the Clopper-Pearson coverage bracket, in (0,1)." in
    checked (check_unit "--confidence") Arg.(value & opt float 0.95 & info [ "confidence" ] ~doc)
  in
  let gamma_arg =
    let doc =
      "Grid resolution passed to the estimator under audit (default: the pipeline's fixed \
       value).  Auditing a deliberately wrong $(docv) demonstrates the contract check \
       catching a mis-calibrated sampler."
    in
    checked (check_unit "--gamma") Arg.(value & opt float Flight.gamma & info [ "gamma" ] ~doc)
  in
  let walk_steps_arg =
    let doc =
      "Fault injection: override the estimator's mixing schedule with $(docv) walk steps per \
       sample (the oracle is untouched).  Starving the walk is the demo of the auditor \
       catching a mis-mixed sampler — see EXPERIMENTS.md."
    in
    checked (check_at_least_one "--walk-steps")
      Arg.(value & opt (some int) None & info [ "walk-steps" ] ~docv:"N" ~doc)
  in
  let phase_samples_arg =
    let doc =
      "Fault injection: override the estimator's per-phase volume sample budget with $(docv) \
       (the oracle is untouched).  Corrupting the budget this way — e.g. a twentieth of the \
       practical 2000 — is the demo of the auditor catching a broken contract; see \
       EXPERIMENTS.md."
    in
    checked (check_at_least_one "--phase-samples")
      Arg.(value & opt (some int) None & info [ "phase-samples" ] ~docv:"N" ~doc)
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Write the spatialdb-audit/1 JSON document to $(docv).")
  in
  let run vars_s formula seed eps delta runs jobs oracle confidence gamma walk_steps
      phase_samples out stats stats_out o =
    let oracle_v =
      match oracle with
      | "exact" -> `Exact
      | "reference" -> `Reference
      | "auto" -> `Auto
      | m -> usage_die "oracle" m [ "exact"; "reference"; "auto" ]
    in
    enable_stats ?stats_out stats;
    setup_obs o;
    let vars, relation = parse_relation vars_s formula in
    let a =
      or_die
        (A.run ~gamma ~jobs ~confidence ~oracle:oracle_v ?walk_steps ?phase_samples
           ~eps ~delta ~runs ~seed relation)
    in
    (match out with
    | Some file -> write_file file (A.to_json ~vars ~formula ~seed ~jobs ~requested:oracle a)
    | None -> ());
    print_string (A.to_text a);
    (* Exit-code convention: a failed contract is a runtime error (1);
       an inconclusive bracket still exits 0 — rerun with more --runs
       to decide. *)
    if a.A.cov.A.verdict = A.Fail then exit 1
  in
  let doc =
    "Verify the (epsilon,delta) accuracy contract empirically: obtain ground truth from an \
     exact or reference oracle, replay the volume estimator over independent seeds, bracket \
     the contract-hit fraction with an exact Clopper-Pearson interval, and attribute the \
     error budget across plan nodes.  Exits 1 when the contract demonstrably fails."
  in
  Cmd.v (Cmd.info "audit" ~doc)
    Term.(
      const run $ vars_arg $ formula_arg $ seed_arg $ eps_arg $ delta_arg $ runs_arg $ jobs_arg
      $ oracle_arg $ confidence_arg $ gamma_arg $ walk_steps_arg
      $ phase_samples_arg $ out_arg $ stats_arg $ stats_out_arg $ obs_term)

(* ---------------- replay ---------------- *)

let replay_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"Flight record ($(b,*.flightrec.json)) to replay.")
  in
  let run file o =
    setup_obs o;
    let r = or_die (Flightrec.read file) in
    match Flight.replay r with
    | Ok n ->
        Printf.printf "replay OK: %d sample(s) reproduced bit-for-bit (seed %d)\n" n
          r.Flightrec.seed
    | Error m ->
        prerr_endline ("spatialdb: replay FAILED: " ^ m);
        exit 1
  in
  let doc =
    "Re-execute a flight record and verify the emitted sample stream is bit-identical to the \
     recorded one (diverging loudly with the first differing draw if not).  The recorded \
     engine decides the plan; a record of the retired $(b,vm) engine replays on the \
     interpreter, whose stream it drew."
  in
  Cmd.v (Cmd.info "replay" ~doc) Term.(const run $ file_arg $ obs_term)

(* ---------------- explain ---------------- *)

let explain_cmd =
  let n_arg = samples_arg "Points the plan is budgeted for (sample/report tasks)." in
  let method_arg =
    let doc = "Per-piece sampler the plan is costed for: $(b,walk), $(b,grid) or $(b,rejection)." in
    Arg.(value & opt string "walk" & info [ "method" ] ~docv:"METHOD" ~doc)
  in
  let format_arg =
    let doc = "Output format: $(b,tree) (indented text, the default) or $(b,json) (the \
               spatialdb-plan/1 document).  Under $(b,--engine vm-opt) both show the \
               rewritten plan, each priced leaf with its weight and draw routes and their \
               costs." in
    Arg.(value & opt string "tree" & info [ "format" ] ~docv:"FORMAT" ~doc)
  in
  let task_arg =
    let doc = "What to budget for: $(b,sample) ($(b,-n) points, the default), $(b,volume) (one \
               estimation) or $(b,report) (both)." in
    Arg.(value & opt string "sample" & info [ "task" ] ~docv:"TASK" ~doc)
  in
  let run vars_s formula n seed eps delta method_ engine format task_s =
    check_method method_;
    check_engine engine;
    if not (List.mem format [ "tree"; "json" ]) then usage_die "format" format [ "tree"; "json" ];
    let task =
      match task_s with
      | "sample" -> Scdb_plan.Plan.Sample n
      | "volume" -> Scdb_plan.Plan.Volume
      | "report" -> Scdb_plan.Plan.Report n
      | t -> usage_die "task" t [ "sample"; "volume"; "report" ]
    in
    let _, relation = parse_relation vars_s formula in
    let config = or_die (Flight.config_of_method method_) in
    (* The run's own preparation on the run's seed: the rounding's
       preprocessing draws decide which pieces survive, so the plan is
       the one the run executes. *)
    let prepared =
      or_die (Flight.prepare ~config ~gamma:Flight.gamma ~eps ~delta ~task (Rng.create seed) relation)
    in
    let plan =
      (if engine = "vm-opt" then Scdb_gis.Plan_exec.optimize prepared else prepared)
        .Scdb_gis.Plan_exec.plan
    in
    print_string
      (match format with
      | "json" -> Json.to_string (Scdb_plan.Plan.to_json plan)
      | _ -> Scdb_plan.Plan.to_text_tree plan)
  in
  let doc =
    "Show the query plan and its paper-derived cost estimates (predicted walk steps, trials, \
     rng draws, membership tests and per-node work budgets).  The plan is the one the run \
     executes: it draws the rounding's preprocessing points on $(b,--seed), as the run does, \
     and no generator sample."
  in
  Cmd.v (Cmd.info "explain" ~doc)
    Term.(
      const run $ vars_arg $ formula_arg $ n_arg $ seed_arg $ eps_arg $ delta_arg $ method_arg
      $ engine_arg $ format_arg $ task_arg)

let () =
  let doc = "uniform generation and volume estimation in spatial constraint databases" in
  let info = Cmd.info "spatialdb" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            sample_cmd;
            volume_cmd;
            qe_cmd;
            reconstruct_cmd;
            report_cmd;
            audit_cmd;
            replay_cmd;
            explain_cmd;
          ]))
