module Tel = Scdb_telemetry.Telemetry
module Trace = Scdb_trace.Trace
module Polytope = Scdb_polytope.Polytope

let ( let* ) = Result.bind

type t = { json : string; chrome_trace : string; text_tree : string }

let json_float v =
  if Float.is_nan v then "null"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let generate ?(eps = 0.2) ?(delta = 0.1) ?(samples = 10)
    ?(chains = Diag_run.default_chains)
    ?(samples_per_chain = Diag_run.default_samples_per_chain) ?(progress = false)
    ?overrun_factor ?(engine = "interp") ~vars ~formula ~seed () =
  if vars = [] then Error "no variables given"
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
        Option.to_result ~none:Flight.empty_relation
          (Plan_exec.prepare ~config:Convex_obs.practical_config ~gamma:Flight.gamma ~eps
             ~delta ~task rng relation)
      in
      (* Compiled engines draw through the instruction profiler (timing
         mode — a report is a diagnostic document) and estimate volume
         through the program's interpreted mirror; their attribution
         rows carry the compiler's rewrite tags. *)
      let* e =
        Flight.start_engine ~profile_mode:Scdb_profile.Profile.Timing ~engine ~eps ~delta
          prepared
      in
      let plan = prepared.Plan_exec.plan in
      (* The progress bus collects per-node actuals for the attribution
         table; armed only around the planned work (diagnostics below
         are outside the plan and must not pollute the root's
         actuals). *)
      Plan_exec.arm ?overrun_factor plan;
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
          let attribution = Plan_exec.attribution ?program:e.Flight.program plan in
          Scdb_progress.Progress.stop ();
          let profile_json = Option.map (Scdb_profile.Profile.to_json ~plan) e.Flight.profile in
          let diag =
            match Relation.tuples relation with
            | tuple :: _ ->
                Diag_run.run ~chains ~samples_per_chain rng (Polytope.of_tuple ~dim tuple)
            | [] -> None
          in
          Ok (relation, plan, attribution, pts, vol, diag, profile_json)
    in
    (* Export after the root span closes so every duration is final. *)
    let out =
      match result with
      | Error e -> Error e
      | Ok (relation, plan, attribution, pts, vol, diag, profile_json) ->
          let chrome = Trace.to_chrome_json () in
          let text = Trace.to_text_tree () in
          let telemetry = Tel.dump ~only_nonzero:true () in
          let buf = Buffer.create 8192 in
          let add = Buffer.add_string buf in
          add "{\n";
          add "  \"schema\": \"spatialdb-report/4\",\n";
          add "  \"args\": {\n";
          add
            (Printf.sprintf "    \"vars\": [%s],\n"
               (String.concat ", "
                  (List.map (fun v -> "\"" ^ Trace.json_escape v ^ "\"") vars)));
          add (Printf.sprintf "    \"formula\": \"%s\",\n" (Trace.json_escape formula));
          add (Printf.sprintf "    \"engine\": \"%s\",\n" (Trace.json_escape engine));
          add (Printf.sprintf "    \"seed\": %d,\n" seed);
          add (Printf.sprintf "    \"eps\": %s,\n" (json_float eps));
          add (Printf.sprintf "    \"delta\": %s,\n" (json_float delta));
          add (Printf.sprintf "    \"samples\": %d,\n" samples);
          add (Printf.sprintf "    \"chains\": %d,\n" chains);
          add (Printf.sprintf "    \"samples_per_chain\": %d\n" samples_per_chain);
          add "  },\n";
          add (Printf.sprintf "  \"dim\": %d,\n" dim);
          add (Printf.sprintf "  \"tuples\": %d,\n" (List.length (Relation.tuples relation)));
          add "  \"samples\": [\n";
          add
            (String.concat ",\n"
               (List.map
                  (fun p ->
                    "    ["
                    ^ String.concat ", "
                        (List.map json_float (Array.to_list p))
                    ^ "]")
                  pts));
          add "\n  ],\n";
          add
            (Printf.sprintf "  \"volume\": %s,\n"
               (match vol with Some v -> json_float v | None -> "null"));
          add "  \"plan\": ";
          add
            (String.concat "\n  "
               (String.split_on_char '\n' (String.trim (Scdb_plan.Plan.to_json plan))));
          add ",\n";
          add "  \"cost_attribution\": ";
          add (Plan_exec.attribution_json attribution);
          add ",\n";
          (* The accuracy twin of cost_attribution: the (ε,δ) grants
             each node received, the δ its spent work actually bought,
             and the remaining slack — keyed by the relation's
             canonical fingerprint (the future cache key). *)
          add "  \"audit\": {\n";
          add
            (Printf.sprintf "    \"fingerprint\": \"%s\",\n" (Relation.fingerprint relation));
          add "    \"error_budget\": ";
          add (Plan_exec.budget_attribution_json (Plan_exec.budget_attribution plan attribution));
          add "\n  },\n";
          add "  \"diagnostics\": ";
          (match diag with
          | Some d ->
              add
                (String.concat "\n  "
                   (String.split_on_char '\n' (Diag_run.to_json d)))
          | None -> add "null");
          add ",\n";
          add "  \"profile\": ";
          (match profile_json with
          | Some pj -> add (String.concat "\n  " (String.split_on_char '\n' (String.trim pj)))
          | None -> add "null");
          add ",\n";
          add (Printf.sprintf "  \"span_count\": %d,\n" (Trace.count ()));
          add "  \"telemetry\": ";
          add (String.concat "\n  " (String.split_on_char '\n' telemetry));
          add ",\n";
          add "  \"trace\": ";
          add chrome;
          add "\n}\n";
          Ok { json = Buffer.contents buf; chrome_trace = chrome; text_tree = text }
    in
    Tel.set_enabled tel_was;
    Trace.set_enabled trace_was;
    out
