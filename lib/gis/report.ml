module Tel = Scdb_telemetry.Telemetry
module Trace = Scdb_trace.Trace
module Polytope = Scdb_polytope.Polytope
module Json = Scdb_json.Json

let ( let* ) = Result.bind

type t = { json : string; chrome_trace : string; text_tree : string }

let generate ?(eps = 0.2) ?(delta = 0.1) ?(samples = 10)
    ?(chains = Diag_run.default_chains)
    ?(samples_per_chain = Diag_run.default_samples_per_chain) ?(progress = false)
    ?(engine = "interp") ~vars ~formula ~seed () =
  if vars = [] then Error "no variables given"
  else if samples < 0 then Error (Printf.sprintf "samples must be >= 0 (got %d)" samples)
  else
    let* engine = Flight.check_engine engine in
    let tel_was = Tel.enabled () and trace_was = Trace.enabled () in
    Tel.set_enabled true;
    Tel.reset ();
    Trace.set_enabled true;
    Trace.reset ();
    let dim = List.length vars in
    let rng = Rng.create seed in
    let result =
      Trace.span "report"
        ~attrs:[ ("seed", string_of_int seed); ("dim", string_of_int dim) ]
      @@ fun () ->
      let* relation = Flight.parse_relation ~vars formula in
      let task = Scdb_plan.Plan.Report samples in
      let* prepared =
        Flight.prepare ~config:Convex_obs.practical_config ~gamma:Flight.gamma ~eps ~delta ~task
          rng relation
      in
      (* Under vm-opt the plan, and so the ledger rows, carry the
         rewrite tags. *)
      let e = Flight.start_engine ~engine ~eps ~delta prepared in
      let plan = e.Flight.plan in
      (* The progress bus collects per-node actuals for the ledger;
         armed only around the planned work (diagnostics below are
         outside the plan and must not pollute the root's actuals). *)
      Plan_exec.arm plan;
      if progress then Scdb_progress.Progress.start_ticker ();
      match
        Trace.span "report.sample" ~attrs:[ ("n", string_of_int samples) ] (fun () ->
            e.Flight.draw rng samples)
      with
      | exception Observable.Estimation_failed m ->
          Scdb_progress.Progress.stop ();
          Error ("sampling failed: " ^ m)
      | pts ->
          let vol =
            Trace.span "report.volume" (fun () ->
                match Observable.volume e.Flight.observable rng ~eps ~delta with
                | v -> Some v
                | exception Observable.Estimation_failed _ -> None)
          in
          let ledger = Plan_exec.ledger plan in
          Scdb_progress.Progress.stop ();
          let diag =
            match Relation.tuples relation with
            | tuple :: _ ->
                Diag_run.run ~chains ~samples_per_chain rng (Polytope.of_tuple ~dim tuple)
            | [] -> None
          in
          Ok (relation, plan, ledger, pts, vol, diag)
    in
    (* Export after the root span closes so every duration is final. *)
    let out =
      match result with
      | Error e -> Error e
      | Ok (relation, plan, ledger, pts, vol, diag) ->
          let chrome = Trace.to_chrome_json () in
          let doc =
            Json.Obj
              [
                ("schema", Json.Str "spatialdb-report/4");
                ( "args",
                  Json.Obj
                    [
                      ("vars", Json.strs vars);
                      ("formula", Json.Str formula);
                      ("engine", Json.Str engine);
                      ("seed", Json.Int seed);
                      ("eps", Json.Num eps);
                      ("delta", Json.Num delta);
                      ("samples", Json.Int samples);
                      ("chains", Json.Int chains);
                      ("samples_per_chain", Json.Int samples_per_chain);
                    ] );
                ("dim", Json.Int dim);
                ("tuples", Json.Int (List.length (Relation.tuples relation)));
                ("samples", Json.Arr (List.map (fun p -> Json.nums (Array.to_list p)) pts));
                ("volume", Json.opt (fun v -> Json.Num v) vol);
                ("plan", Scdb_plan.Plan.to_json plan);
                ("cost_attribution", Plan_exec.to_json Plan_exec.cost_fields ledger);
                (* The accuracy twin of cost_attribution: the (ε,δ)
                   grants each node received, the δ its spent work
                   actually bought, and the remaining slack — keyed by
                   the relation's canonical fingerprint (the future
                   cache key). *)
                ( "audit",
                  Json.Obj
                    [
                      ("fingerprint", Json.Str (Relation.fingerprint relation));
                      ("error_budget", Plan_exec.to_json Plan_exec.budget_fields ledger);
                    ] );
                ("diagnostics", Json.opt Diag_run.to_json diag);
                ("span_count", Json.Int (Trace.count ()));
                ("telemetry", Tel.dump ~only_nonzero:true ());
                ("trace", chrome);
              ]
          in
          Ok
            {
              json = Json.to_string doc;
              chrome_trace = Json.to_string chrome;
              text_tree = Trace.to_text_tree ();
            }
    in
    Tel.set_enabled tel_was;
    Trace.set_enabled trace_was;
    out
