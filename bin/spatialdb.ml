(* spatialdb — command-line front end.

   Subcommands:
     sample       draw almost uniform points from a relation
     volume       estimate (or compute exactly) the volume of a relation
     qe           quantifier elimination (Fourier–Motzkin)
     reconstruct  hull-of-samples shape estimation (2-D output)

   Formulas use the FO+LIN syntax of Scdb_constr.Parser, e.g.
     spatialdb volume -v x,y -f "0 <= x <= 2 /\\ 0 <= y <= 1 /\\ x + y <= 2.5"
*)

open Cmdliner
module Rng = Scdb_rng.Rng
module Tel = Scdb_telemetry.Telemetry
module Log = Scdb_log.Log
module Metrics = Scdb_log.Metrics_export
module Flightrec = Scdb_log.Flightrec
module Flight = Scdb_gis.Flight
module Obs = Scdb_obs.Obs
module Json = Scdb_json.Json
module FM = Scdb_qe.Fourier_motzkin
module VE = Scdb_polytope.Volume_exact
module GV = Scdb_polytope.Gridvol
module H2 = Scdb_hull.Hull2d

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
  Arg.(value & opt float 0.2 & info [ "eps" ] ~doc)

let delta_arg =
  let doc = "Failure probability delta in (0,1)." in
  Arg.(value & opt float 0.1 & info [ "delta" ] ~doc)

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

(* Exit-code convention: 2 for usage/value errors (bad flag values,
   with the valid choices listed), 1 for runtime errors (parse
   failures, empty relations, estimation failures), and cmdliner's own
   124 for malformed command lines (unknown flags/subcommands). *)
let usage_die what got valid =
  Printf.eprintf "spatialdb: unknown %s %S (expected one of: %s)\n" what got
    (String.concat ", " valid);
  exit 2

(* Usage error for a count flag that must be positive. *)
let check_at_least_one flag = function
  | Some n when n < 1 ->
      Printf.eprintf "spatialdb: %s must be >= 1 (got %d)\n" flag n;
      exit 2
  | _ -> ()

let check_method m =
  if not (List.mem m Flight.methods) then usage_die "method" m Flight.methods

let check_engine e =
  if not (List.mem e Flight.engines) then usage_die "engine" e Flight.engines

let engine_arg =
  let doc =
    "Execution engine: $(b,interp) (the observable-combinator interpreter, the default), \
     $(b,vm) (plans compiled to the flat kernel VM; bit-identical rng stream and sample \
     stream to the interpreter) or $(b,vm-opt) (the VM with cost-based plan rewrites — same \
     distribution, different stream, typically the fastest)."
  in
  Arg.(value & opt string "interp" & info [ "engine" ] ~docv:"ENGINE" ~doc)

let progress_arg =
  let doc =
    "Show a live progress line on stderr (per-plan-node percent complete and an ETA derived \
     from the cost model's predicted budgets), and print the predicted-vs-actual cost \
     attribution table when the run finishes."
  in
  Arg.(value & flag & info [ "progress" ] ~doc)

let overrun_arg =
  let doc =
    "Watchdog threshold for $(b,--progress): log a $(b,plan.budget_overrun) warning when a \
     plan node's actual work exceeds its predicted budget by this factor."
  in
  Arg.(value & opt float 4.0 & info [ "overrun-factor" ] ~docv:"FACTOR" ~doc)

let print_attribution ?program plan =
  prerr_endline "cost attribution (predicted vs actual, work units = steps + trials):";
  prerr_string
    (Scdb_gis.Plan_exec.attribution_text (Scdb_gis.Plan_exec.attribution ?program plan))

let profile_modes = [ "counting"; "timing" ]

let profile_mode_of_string s =
  match s with
  | "counting" -> Scdb_profile.Profile.Counting
  | "timing" -> Scdb_profile.Profile.Timing
  | m -> usage_die "profile mode" m profile_modes

(* ---------------- observability flags ---------------- *)

type obs = {
  log_level : string option;
  log_out : string option;
  metrics_out : string option;
  metrics_interval : float;
}

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
  let metrics_out_arg =
    let doc =
      "Write a Prometheus text-format snapshot of the telemetry registry to $(docv) on exit \
       (implies telemetry collection).  The write is atomic (temp file + rename), so the file \
       is safe to scrape."
    in
    Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)
  in
  let metrics_interval_arg =
    let doc =
      "With $(b,--metrics-out), also re-emit the snapshot every $(docv) seconds from a \
       background thread (node-exporter textfile-collector style)."
    in
    Arg.(value & opt float 0.0 & info [ "metrics-interval" ] ~docv:"SECONDS" ~doc)
  in
  let make log_level log_out metrics_out metrics_interval =
    { log_level; log_out; metrics_out; metrics_interval }
  in
  Term.(const make $ log_level_arg $ log_out_arg $ metrics_out_arg $ metrics_interval_arg)

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
  end;
  match o.metrics_out with
  | None -> ()
  | Some path ->
      Tel.set_enabled true;
      at_exit (fun () ->
          Metrics.stop_periodic ();
          Metrics.write_file ~path);
      if o.metrics_interval > 0.0 then
        Metrics.start_periodic ~path ~interval_s:o.metrics_interval

let parse_relation vars_s formula =
  let vars = Flight.split_vars vars_s in
  (vars, or_die (Flight.parse_relation ~vars formula))

(* ---------------- sample ---------------- *)

let sample_cmd =
  let n_arg =
    Arg.(value & opt int 10 & info [ "n"; "samples" ] ~doc:"Number of points to draw.")
  in
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
  let profile_arg =
    let doc =
      "Attach the instruction profiler to the run (compiled engines only): $(b,counting) \
       (exact per-pc/per-opcode execution counts, allocation-free) or $(b,timing) (counts \
       plus monotonic-clock nanosecond buckets on the kernel opcodes; the default when the \
       flag is given bare).  Prints the hot-pc/per-opcode/per-node tables and the \
       predicted-vs-actual attribution to stderr.  Profiling never perturbs the RNG stream."
    in
    Arg.(
      value
      & opt (some string) None ~vopt:(Some "timing")
      & info [ "profile" ] ~docv:"MODE" ~doc)
  in
  let profile_out_arg =
    let doc =
      "With $(b,--profile), additionally write the full spatialdb-profile/1 JSON document \
       (hot pcs, opcode histogram, per-node rollup, Chrome trace events) to $(docv)."
    in
    Arg.(value & opt (some string) None & info [ "profile-out" ] ~docv:"FILE" ~doc)
  in
  let run vars_s formula n seed eps delta method_ engine stats stats_out diag chains o record
      record_anomaly progress overrun_factor profile_s profile_out jobs jobs_mode live
      status_out =
    check_method method_;
    check_engine engine;
    if not (List.mem jobs_mode [ "domains"; "seq" ]) then
      usage_die "jobs mode" jobs_mode [ "domains"; "seq" ];
    if jobs < 1 then or_die (Error "--jobs must be >= 1");
    let profile_mode = Option.map profile_mode_of_string profile_s in
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
    let track = record <> None || record_anomaly <> None in
    let emit_points (outcome : Flight.outcome) =
      List.iter
        (fun p ->
          print_endline
            (String.concat "\t" (List.map (Printf.sprintf "%.6f") (Array.to_list p))))
        outcome.Flight.points
    in
    let outcome =
      if jobs = 1 && not live && status_out = None then
        (* The legacy single-run path: everything lands in the default
           context, exactly as before contexts existed. *)
        or_die (Flight.run ~track ~progress ~ticker:progress ~overrun_factor ?profile_mode args)
      else begin
        (* Contexted path: each job runs the whole query in its own
           observability context (seed + job index), optionally on its
           own domain, and the parent merges every context back into
           the default one so the process-wide tails (stats dumps,
           flight records, anomaly counters) see the union. *)
        if jobs > 1 && track then
          or_die (Error "--record/--record-on-anomaly require --jobs 1 (one stream per record)");
        if jobs > 1 && profile_mode <> None then or_die (Error "--profile requires --jobs 1");
        if jobs > 1 && diag then or_die (Error "--diag requires --jobs 1");
        let ctxs =
          Array.init jobs (fun i -> Obs.Ctx.create ~name:(Printf.sprintf "job-%d" i) ())
        in
        if live || status_out <> None then begin
          (* The status view reads the produced-samples telemetry
             counters, so a live/status run must count even when no
             --stats sink asked for them. *)
          Tel.set_enabled true;
          Obs.Status.start_ticker ?out:status_out ~to_stderr:live ()
        end;
        let job i =
          let c = ctxs.(i) in
          let a = { args with Flight.seed = seed + i } in
          let r = Flight.run ~ctx:c ~track ~progress:true ~overrun_factor ?profile_mode a in
          (match r with
          | Ok oc ->
              (* First-coordinate ESS estimate for the status view; the
                 points are already drawn, so this costs one FFT-free
                 autocorrelation pass. *)
              let xs = Array.of_list (List.map (fun p -> p.(0)) oc.Flight.points) in
              if Array.length xs >= 4 then Obs.Ctx.set_ess c (Scdb_diag.Diag.ess xs)
          | Error _ -> ());
          Obs.Ctx.mark_done c;
          r
        in
        let results =
          match jobs_mode with
          | "seq" -> Array.init jobs job
          | _ ->
              let doms = Array.init jobs (fun i -> Domain.spawn (fun () -> job i)) in
              Array.map Domain.join doms
        in
        if live || status_out <> None then
          Obs.Status.stop_ticker ?out:status_out ~to_stderr:live ();
        Array.iter (fun c -> Obs.Ctx.merge ~into:Obs.Ctx.default c) ctxs;
        let outcomes = Array.map or_die results in
        if jobs > 1 then begin
          Array.iter emit_points outcomes;
          exit 0
        end;
        (* jobs = 1: after the merge the default context holds exactly
           what an uncontexted run would have left behind, so the
           record/profile/diag tails below run unchanged. *)
        outcomes.(0)
      end
    in
    (match outcome.Flight.profile with
    | Some profile ->
        prerr_string
          (Scdb_profile.Profile.text_report ~plan:outcome.Flight.plan profile);
        print_attribution ?program:outcome.Flight.program outcome.Flight.plan;
        (match profile_out with
        | Some path ->
            write_file path
              (Json.to_string (Scdb_profile.Profile.to_json ~plan:outcome.Flight.plan profile))
        | None -> ())
    | None -> if progress then print_attribution ?program:outcome.Flight.program outcome.Flight.plan);
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
  let jobs_arg =
    let doc =
      "Run $(docv) whole-query repetitions (seeds seed, seed+1, ...), each in its own \
       observability context, and print all sample streams in job order.  Per-job streams \
       depend only on the job's seed, so the merged counters are identical whichever \
       $(b,--jobs-mode) executes them."
    in
    Arg.(value & opt int 1 & info [ "jobs" ] ~docv:"K" ~doc)
  in
  let jobs_mode_arg =
    let doc =
      "How to execute $(b,--jobs): $(b,domains) (one domain per job, concurrent — the \
       default) or $(b,seq) (same contexts, one after another — the differential baseline)."
    in
    Arg.(value & opt string "domains" & info [ "jobs-mode" ] ~docv:"MODE" ~doc)
  in
  let live_arg =
    let doc =
      "Render a live per-context status line (draws/sec, acceptance rate, budget burn) to \
       stderr while sampling."
    in
    Arg.(value & flag & info [ "live" ] ~doc)
  in
  let status_out_arg =
    let doc =
      "Periodically publish the spatialdb-status/1 status document to $(docv) (atomic \
       write-then-rename, so it is safe to read at any moment — e.g. with $(b,spatialdb \
       status))."
    in
    Arg.(value & opt (some string) None & info [ "status-out" ] ~docv:"FILE" ~doc)
  in
  let doc = "Draw almost uniform points from the relation (Definition 2.2 generator)." in
  Cmd.v (Cmd.info "sample" ~doc)
    Term.(
      const run $ vars_arg $ formula_arg $ n_arg $ seed_arg $ eps_arg $ delta_arg $ method_arg
      $ engine_arg $ stats_arg $ stats_out_arg $ diag_arg $ chains_arg $ obs_term $ record_arg
      $ record_anomaly_arg $ progress_arg $ overrun_arg $ profile_arg $ profile_out_arg
      $ jobs_arg $ jobs_mode_arg $ live_arg $ status_out_arg)

(* ---------------- volume ---------------- *)

let volume_cmd =
  let mode_arg =
    let doc = "One of: exact (Lasserre + inclusion-exclusion), grid:GAMMA (fixed-dimension decomposition), sampling (DFK estimators)." in
    Arg.(value & opt string "sampling" & info [ "mode" ] ~doc)
  in
  let run vars_s formula mode seed eps delta stats stats_out o progress overrun_factor =
    enable_stats ?stats_out stats;
    setup_obs o;
    let _, relation = parse_relation vars_s formula in
    let rng = Rng.create seed in
    match mode with
    | "exact" -> (
        match VE.float_volume_relation relation with
        | v -> Printf.printf "%.9f\n" v
        | exception VE.Unbounded -> or_die (Error "relation is unbounded")
        | exception Invalid_argument m -> or_die (Error m))
    | "sampling" -> (
        match
          Scdb_gis.Plan_exec.observable_of_relation ~gamma:Flight.gamma ~eps ~delta
            ~task:Scdb_plan.Plan.Volume rng relation
        with
        | None -> or_die (Error Flight.empty_relation)
        | Some (plan, obs) -> (
            if progress then begin
              Scdb_gis.Plan_exec.arm ~overrun_factor plan;
              Scdb_progress.Progress.start_ticker ()
            end;
            match Observable.volume obs rng ~eps ~delta with
            | v ->
                if progress then begin
                  Scdb_progress.Progress.stop ();
                  print_attribution plan
                end;
                Printf.printf "%.6f\n" v
            | exception Observable.Estimation_failed m ->
                if progress then Scdb_progress.Progress.stop ();
                or_die (Error m)))
    | m when String.length m > 5 && String.sub m 0 5 = "grid:" -> (
        let gamma = float_of_string (String.sub m 5 (String.length m - 5)) in
        match GV.build ~gamma relation with
        | Some g -> Printf.printf "%.6f\n" (GV.volume g)
        | None -> or_die (Error "relation is empty or unbounded"))
    | m -> usage_die "mode" m [ "exact"; "sampling"; "grid:GAMMA" ]
  in
  let doc = "Volume of the relation: exact, grid-decomposed, or the paper's (eps,delta)-estimator." in
  Cmd.v (Cmd.info "volume" ~doc)
    Term.(
      const run $ vars_arg $ formula_arg $ mode_arg $ seed_arg $ eps_arg $ delta_arg $ stats_arg
      $ stats_out_arg $ obs_term $ progress_arg $ overrun_arg)

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
    Arg.(value & opt int 200 & info [ "n"; "samples" ] ~doc:"Samples per convex piece.")
  in
  let run vars_s formula n seed stats stats_out =
    enable_stats ?stats_out stats;
    let vars, relation = parse_relation vars_s formula in
    if List.length vars <> 2 then or_die (Error "reconstruct prints polygons: exactly 2 variables required");
    let rng = Rng.create seed in
    let pieces =
      List.map
        (fun (_, p) -> Convex_obs.observe p)
        (Convex_obs.prepare_tuples ~config:Convex_obs.practical_config rng relation)
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
  let n_arg =
    Arg.(value & opt int 10 & info [ "n"; "samples" ] ~doc:"Number of points to draw.")
  in
  let chains_arg =
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
  let run vars_s formula n seed eps delta chains out format trace_out o progress
      overrun_factor engine =
    setup_obs o;
    check_engine engine;
    if not (List.mem format [ "json"; "trace"; "tree" ]) then
      usage_die "format" format [ "json"; "trace"; "tree" ];
    let vars = Flight.split_vars vars_s in
    let report =
      or_die
        (Scdb_gis.Report.generate ~eps ~delta ~samples:n ~chains ~progress ~overrun_factor
           ~engine ~vars ~formula ~seed ())
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
      $ out_arg $ format_arg $ trace_out_arg $ obs_term $ progress_arg $ overrun_arg
      $ engine_arg)

(* ---------------- audit ---------------- *)

let audit_cmd =
  let module A = Scdb_audit.Audit in
  let runs_arg =
    let doc =
      "Number of replicate estimates (seeds seed, seed+1, ...).  The Clopper-Pearson bracket \
       tightens with $(docv): at delta 0.1 and 95% confidence a strict pass needs >= 36 \
       all-hit replicates."
    in
    Arg.(value & opt int 40 & info [ "runs" ] ~docv:"N" ~doc)
  in
  let jobs_arg =
    let doc =
      "Deal the replicates round-robin across $(docv) observability contexts.  Replicate \
       streams depend only on their seed, so the estimates and the verdict are identical \
       whichever $(b,--jobs-mode) executes them."
    in
    Arg.(value & opt int 1 & info [ "jobs" ] ~docv:"K" ~doc)
  in
  let jobs_mode_arg =
    let doc =
      "How to execute $(b,--jobs): $(b,domains) (one domain per job, concurrent — the \
       default) or $(b,seq) (same contexts, one after another — the differential baseline)."
    in
    Arg.(value & opt string "domains" & info [ "jobs-mode" ] ~docv:"MODE" ~doc)
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
    let doc = "Confidence level of the Clopper-Pearson coverage bracket." in
    Arg.(value & opt float 0.95 & info [ "confidence" ] ~doc)
  in
  let gamma_arg =
    let doc =
      "Grid resolution passed to the estimator under audit (default: the pipeline's fixed \
       value).  Auditing a deliberately wrong $(docv) demonstrates the contract check \
       catching a mis-calibrated sampler."
    in
    Arg.(value & opt float Flight.gamma & info [ "gamma" ] ~doc)
  in
  let walk_steps_arg =
    let doc =
      "Fault injection: override the estimator's mixing schedule with $(docv) walk steps per \
       sample (the oracle is untouched).  Starving the walk is the demo of the auditor \
       catching a mis-mixed sampler — see EXPERIMENTS.md."
    in
    Arg.(value & opt (some int) None & info [ "walk-steps" ] ~docv:"N" ~doc)
  in
  let phase_samples_arg =
    let doc =
      "Fault injection: override the estimator's per-phase volume sample budget with $(docv) \
       (the oracle is untouched).  Corrupting the budget this way — e.g. a twentieth of the \
       practical 2000 — is the demo of the auditor catching a broken contract; see \
       EXPERIMENTS.md."
    in
    Arg.(value & opt (some int) None & info [ "phase-samples" ] ~docv:"N" ~doc)
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Write the spatialdb-audit/1 JSON document to $(docv).")
  in
  let run vars_s formula seed eps delta runs jobs jobs_mode oracle confidence gamma walk_steps
      phase_samples out stats stats_out o =
    if not (List.mem jobs_mode [ "domains"; "seq" ]) then
      usage_die "jobs mode" jobs_mode [ "domains"; "seq" ];
    if jobs < 1 then or_die (Error "--jobs must be >= 1");
    check_at_least_one "--walk-steps" walk_steps;
    check_at_least_one "--phase-samples" phase_samples;
    let oracle_v =
      match oracle with
      | "exact" -> `Exact
      | "reference" -> `Reference
      | "auto" -> `Auto
      | m -> usage_die "oracle" m [ "exact"; "reference"; "auto" ]
    in
    let mode = if jobs_mode = "seq" then A.Seq else A.Domains in
    enable_stats ?stats_out stats;
    setup_obs o;
    let vars, relation = parse_relation vars_s formula in
    let a =
      or_die
        (A.run ~gamma ~jobs ~mode ~confidence ~oracle:oracle_v ?walk_steps ?phase_samples
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
      $ jobs_mode_arg $ oracle_arg $ confidence_arg $ gamma_arg $ walk_steps_arg
      $ phase_samples_arg $ out_arg $ stats_arg $ stats_out_arg $ obs_term)

(* ---------------- profile ---------------- *)

let profile_cmd =
  let n_arg =
    Arg.(value & opt int 10 & info [ "n"; "samples" ] ~doc:"Number of points to draw.")
  in
  let method_arg =
    let doc = "Per-piece sampler: $(b,walk), $(b,grid) or $(b,rejection)." in
    Arg.(value & opt string "walk" & info [ "method" ] ~docv:"METHOD" ~doc)
  in
  let engine_arg =
    let doc =
      "Compiled engine to profile: $(b,vm) (the strict mirror) or $(b,vm-opt) (with \
       cost-based rewrites, the default — the rewrite tags in the output show where its \
       speedup comes from)."
    in
    Arg.(value & opt string "vm-opt" & info [ "engine" ] ~docv:"ENGINE" ~doc)
  in
  let mode_arg =
    let doc =
      "Profiler mode: $(b,timing) (per-pc monotonic-clock nanosecond buckets, the default) \
       or $(b,counting) (execution counts only — allocation-free, negligible overhead)."
    in
    Arg.(value & opt string "timing" & info [ "mode" ] ~docv:"MODE" ~doc)
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Write the spatialdb-profile/1 JSON document to $(docv).")
  in
  let top_arg =
    Arg.(value & opt int 10 & info [ "top" ] ~docv:"N" ~doc:"Rows in the hot-pc table.")
  in
  let run vars_s formula n seed eps delta method_ engine mode_s out top stats stats_out o =
    check_method method_;
    let compiled = List.filter (( <> ) "interp") Flight.engines in
    if not (List.mem engine compiled) then usage_die "engine" engine compiled;
    let mode = profile_mode_of_string mode_s in
    enable_stats ?stats_out stats;
    setup_obs o;
    let args =
      { Flight.vars = Flight.split_vars vars_s; formula; n; seed; eps; delta; method_; engine }
    in
    let outcome = or_die (Flight.run ~profile_mode:mode args) in
    let plan = outcome.Flight.plan in
    let profile = Option.get outcome.Flight.profile in
    print_string (Scdb_profile.Profile.text_report ~plan ~top profile);
    print_attribution ?program:outcome.Flight.program plan;
    match out with
    | Some path -> write_file path (Json.to_string (Scdb_profile.Profile.to_json ~plan profile))
    | None -> ()
  in
  let doc =
    "Draw points through a compiled engine under the instruction profiler and print the \
     hot-pc table, the per-opcode histogram, the per-plan-node rollup (with the compiler's \
     rewrite tags) and the predicted-vs-actual cost attribution."
  in
  Cmd.v (Cmd.info "profile" ~doc)
    Term.(
      const run $ vars_arg $ formula_arg $ n_arg $ seed_arg $ eps_arg $ delta_arg $ method_arg
      $ engine_arg $ mode_arg $ out_arg $ top_arg $ stats_arg $ stats_out_arg $ obs_term)

(* ---------------- replay ---------------- *)

let replay_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"Flight record ($(b,*.flightrec.json)) to replay.")
  in
  let engine_override_arg =
    let doc =
      "Replay through $(docv) ($(b,interp), $(b,vm) or $(b,vm-opt)) instead of the engine \
       recorded in the file.  Replaying an interpreter-recorded flight with $(b,--engine vm) \
       is the differential check that the compiled engine mirrors the interpreter \
       bit-for-bit."
    in
    Arg.(value & opt (some string) None & info [ "engine" ] ~docv:"ENGINE" ~doc)
  in
  let run file engine o =
    setup_obs o;
    Option.iter check_engine engine;
    let r = or_die (Flightrec.read file) in
    match Flight.replay ?engine r with
    | Ok n ->
        Printf.printf "replay OK: %d sample(s) reproduced bit-for-bit (seed %d)\n" n
          r.Flightrec.seed
    | Error m ->
        prerr_endline ("spatialdb: replay FAILED: " ^ m);
        exit 1
  in
  let doc =
    "Re-execute a flight record and verify the emitted sample stream is bit-identical to the \
     recorded one (diverging loudly with the first differing draw if not)."
  in
  Cmd.v (Cmd.info "replay" ~doc) Term.(const run $ file_arg $ engine_override_arg $ obs_term)

(* ---------------- status ---------------- *)

let status_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:"Status document written by $(b,spatialdb sample --status-out).")
  in
  let require_arg =
    let doc =
      "Exit 1 unless at least $(docv) contexts in the document show recorded draws (used by \
       CI to assert that concurrently active contexts really were observed)."
    in
    Arg.(value & opt int 0 & info [ "require" ] ~docv:"N" ~doc)
  in
  let run file require =
    let rows =
      Json.of_file file (fun doc ->
          Result.map_error (fun m -> file ^ ": " ^ m) (Obs.Status.of_json doc))
      |> Result.join |> or_die
    in
    print_string (Obs.Status.render rows);
    let active =
      List.length (List.filter (fun r -> r.Obs.Status.r_draws > 0.0) rows)
    in
    if require > 0 && active < require then begin
      Printf.eprintf "spatialdb: status: only %d context(s) with draws (require %d)\n" active
        require;
      exit 1
    end
  in
  let doc =
    "Render a spatialdb-status/1 document (as published by $(b,sample --status-out)) as a \
     per-context table: draws/sec, acceptance rate, budget burn, ESS, warnings, spans."
  in
  Cmd.v (Cmd.info "status" ~doc) Term.(const run $ file_arg $ require_arg)

(* ---------------- plan ---------------- *)

let plan_cmd =
  let run vars_s formula eps delta =
    let vars, relation = parse_relation vars_s formula in
    (* Wrap the relation as a single-relation database so the planner's
       cost model applies. *)
    let module Gis = Scdb_gis in
    let free_dim = List.length vars in
    let schema = Gis.Schema.of_list [ ("Q", free_dim) ] in
    let inst = Gis.Instance.set (Gis.Instance.create schema) "Q" relation in
    let query = Gis.Query.rel "Q" (List.init free_dim Fun.id) in
    let est = Gis.Planner.plan ~eps ~delta inst ~free_dim query in
    let strategy =
      match est.Gis.Planner.strategy with
      | Gis.Planner.Use_exact -> "exact (symbolic QE + Lasserre volume)"
      | Gis.Planner.Use_grid g -> Printf.sprintf "grid (gamma = %g)" g
      | Gis.Planner.Use_sampling { eps; delta } ->
          Printf.sprintf "sampling (eps = %g, delta = %g)" eps delta
    in
    Printf.printf "strategy      : %s\n" strategy;
    Printf.printf "predicted cost: %.3g work units\n" est.Gis.Planner.predicted_cost;
    Printf.printf "reason        : %s\n" est.Gis.Planner.reason
  in
  let doc = "Show which evaluation strategy the cost model would choose for the formula." in
  Cmd.v (Cmd.info "plan" ~doc) Term.(const run $ vars_arg $ formula_arg $ eps_arg $ delta_arg)

(* ---------------- explain ---------------- *)

let explain_cmd =
  let n_arg =
    Arg.(
      value & opt int 10
      & info [ "n"; "samples" ] ~doc:"Points the plan is budgeted for (sample/report tasks).")
  in
  let method_arg =
    let doc = "Per-piece sampler the plan is costed for: $(b,walk), $(b,grid) or $(b,rejection)." in
    Arg.(value & opt string "walk" & info [ "method" ] ~docv:"METHOD" ~doc)
  in
  let format_arg =
    let doc = "Output format: $(b,tree) (indented text, the default), $(b,json) (the \
               spatialdb-plan/1 document) or $(b,program) (the plan lowered to the kernel VM: \
               piece table, weight/trial slots and the instruction listing)." in
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
    if not (List.mem format [ "tree"; "json"; "program" ]) then
      usage_die "format" format [ "tree"; "json"; "program" ];
    let task =
      match task_s with
      | "sample" -> Scdb_plan.Plan.Sample n
      | "volume" -> Scdb_plan.Plan.Volume
      | "report" -> Scdb_plan.Plan.Report n
      | t -> usage_die "task" t [ "sample"; "volume"; "report" ]
    in
    let _, relation = parse_relation vars_s formula in
    let config = or_die (Flight.config_of_method method_) in
    if format = "program" then begin
      (* Lowering needs the prepared pieces (the rng-consuming rounding
         half), so this format takes the seed the run would use. *)
      let task = (match task with Scdb_plan.Plan.Volume -> Scdb_plan.Plan.Sample n | t -> t) in
      let rng = Rng.create seed in
      match
        Scdb_gis.Plan_exec.prepare ~config ~gamma:Flight.gamma ~eps ~delta ~task rng relation
      with
      | None -> or_die (Error Flight.empty_relation)
      | Some prepared -> (
          match Scdb_gis.Plan_exec.compile ~optimize:(engine = "vm-opt") prepared with
          | Error m -> or_die (Error ("plan does not compile: " ^ m))
          | Ok prog -> print_string (Scdb_vm.Vm.disassemble prog))
    end
    else
      match
        Scdb_gis.Plan_build.of_relation ~config ~gamma:Flight.gamma ~eps ~delta ~task relation
      with
      | None -> or_die (Error Flight.empty_relation)
      | Some plan ->
          print_string
            (match format with
            | "json" -> Json.to_string (Scdb_plan.Plan.to_json plan)
            | _ -> Scdb_plan.Plan.to_text_tree plan)
  in
  let doc =
    "Show the query plan and its paper-derived cost estimates (predicted walk steps, trials, \
     rng draws, membership tests and per-node work budgets) without sampling anything."
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
            profile_cmd;
            replay_cmd;
            status_cmd;
            plan_cmd;
            explain_cmd;
          ]))
