(* End-to-end tests for the spatialdb-report/4 generator on the paper's
   Figure 1 triangle. *)

module Report = Scdb_gis.Report
module J = Scdb_json.Json

let ts name f = Alcotest.test_case name `Slow f
let t name f = Alcotest.test_case name `Quick f

let fig1 = "x >= 0 /\\ y >= 0 /\\ x + y <= 1"

let report_tests =
  [
    ts "figure 1 report is schema-valid with converging diagnostics" (fun () ->
        match Report.generate ~vars:[ "x"; "y" ] ~formula:fig1 ~seed:42 () with
        | Error e -> Alcotest.failf "generate failed: %s" e
        | Ok r ->
            let doc = J.parse r.Report.json in
            Alcotest.(check string) "schema" "spatialdb-report/4" (J.field "schema" J.str doc);
            (* The embedded plan is a valid spatialdb-plan/1 document
               budgeted for the report task. *)
            let plan = J.field "plan" Fun.id doc in
            Alcotest.(check string) "plan schema" "spatialdb-plan/1" (J.field "schema" J.str plan);
            Alcotest.(check string) "plan task" "report" (J.field "task" J.str plan);
            (match Scdb_plan.Plan.of_json plan with
            | Ok p ->
                Alcotest.(check bool) "plan total_work positive" true
                  (p.Scdb_plan.Plan.total_work > 0.0)
            | Error e -> Alcotest.failf "embedded plan does not round-trip: %s" e);
            (* Every executed node has a finite, positive actual/predicted
               ratio. *)
            let rows = J.field "cost_attribution" (J.list Fun.id) doc in
            Alcotest.(check bool) "attribution rows present" true (rows <> []);
            List.iter
              (fun row ->
                if J.field "actual" J.num row > 0.0 then
                  Alcotest.(check bool) "ratio positive" true (J.field "ratio" J.num row > 0.0))
              rows;
            (* Arguments echo back. *)
            Alcotest.(check int) "seed" 42 (J.field "args" (J.field "seed" J.int) doc);
            Alcotest.(check string) "formula" fig1 (J.field "args" (J.field "formula" J.str) doc);
            (* Deep trace: at least 10 nested spans. *)
            let span_count = J.field "span_count" J.int doc in
            Alcotest.(check bool) "span_count >= 10" true (span_count >= 10);
            let events = J.field "trace" (J.field "traceEvents" (J.list Fun.id)) doc in
            Alcotest.(check int) "trace matches span_count" span_count (List.length events);
            (* Telemetry snapshot rides along. *)
            Alcotest.(check string) "telemetry schema" "spatialdb-telemetry/2"
              (J.field "telemetry" (J.field "schema" J.str) doc);
            (* Diagnostics: m >= 4 chains, per-coordinate R-hat < 1.1. *)
            let diag = J.field "diagnostics" Fun.id doc in
            Alcotest.(check bool) "chains >= 4" true (J.field "chains" J.int diag >= 4);
            let rhat = J.field "rhat" (J.list J.num) diag in
            Alcotest.(check int) "rhat per coordinate" 2 (List.length rhat);
            List.iter (fun x -> Alcotest.(check bool) "R-hat < 1.1" true (x < 1.1)) rhat;
            (* The triangle's volume is 1/2; eps = 0.2 at delta = 0.1. *)
            let vol = J.field "volume" J.num doc in
            Alcotest.(check bool) "volume near 0.5" true (vol > 0.35 && vol < 0.65);
            (* The separate Chrome trace parses on its own. *)
            Alcotest.(check int) "chrome trace parses" (List.length events)
              (List.length (J.field "traceEvents" (J.list Fun.id) (J.parse r.Report.chrome_trace))));
    ts "report generation is deterministic given the seed" (fun () ->
        let volume_of r = J.field "volume" J.num (J.parse r.Report.json) in
        match
          ( Report.generate ~vars:[ "x"; "y" ] ~formula:fig1 ~seed:7 ~samples:4 (),
            Report.generate ~vars:[ "x"; "y" ] ~formula:fig1 ~seed:7 ~samples:4 () )
        with
        | Ok a, Ok b ->
            Alcotest.(check (float 0.0)) "same volume" (volume_of a) (volume_of b)
        | _ -> Alcotest.fail "generate failed");
    ts "whole report JSON is identical modulo clock fields" (fun () ->
        (* Strip everything wall-clock dependent — span timestamps and
           durations, plus timer histograms (named *.seconds), whose
           bucket placement depends on measured durations — and require
           the rest of the two documents to be structurally equal. *)
        let rec strip v =
          match v with
          | J.Obj kvs ->
              J.Obj
                (List.filter_map
                   (fun (k, v) ->
                     if k = "ts" || k = "dur" then None
                     else
                       match (k, v) with
                       | "histograms", J.Obj hs ->
                           Some
                             ( k,
                               J.Obj
                                 (List.filter
                                    (fun (n, _) ->
                                      not (String.ends_with ~suffix:".seconds" n))
                                    hs) )
                       | _ -> Some (k, strip v))
                   kvs)
          | J.Arr l -> J.Arr (List.map strip l)
          | x -> x
        in
        match
          ( Report.generate ~vars:[ "x"; "y" ] ~formula:fig1 ~seed:11 ~samples:4 (),
            Report.generate ~vars:[ "x"; "y" ] ~formula:fig1 ~seed:11 ~samples:4 () )
        with
        | Ok a, Ok b ->
            let da = strip (J.parse a.Report.json) and db = strip (J.parse b.Report.json) in
            Alcotest.(check bool) "structurally equal" true (da = db)
        | _ -> Alcotest.fail "generate failed");
    t "a ratio without predicted work reads back as null" (fun () ->
        (* A node that ran with predicted work 0 has an infinite
           actual/predicted ratio; the error budget must still be valid
           JSON, with the ratio read back as null. *)
        let module PE = Scdb_gis.Plan_exec in
        let row =
          { PE.id = 0; op = "dfk"; tags = []; predicted = 0.0; actual = 12.0; eps = 0.1;
            delta = 0.05 }
        in
        let text = J.to_string (PE.to_json PE.budget_fields [| row |]) in
        Alcotest.(check bool) "ratio is null" true
          (J.list (J.field "ratio" Fun.id) (J.parse text) = [ J.Null ]));
    t "parse errors surface as Error" (fun () ->
        match Report.generate ~vars:[ "x" ] ~formula:"x >=" ~seed:1 () with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "expected a parse error");
    t "a negative sample count surfaces as Error" (fun () ->
        match Report.generate ~vars:[ "x"; "y" ] ~formula:fig1 ~seed:1 ~samples:(-1) () with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "expected a sample-count error");
    t "report restores the global enabled flags" (fun () ->
        let tel = Scdb_telemetry.Telemetry.enabled () in
        let trace = Scdb_trace.Trace.enabled () in
        ignore (Report.generate ~vars:[ "x" ] ~formula:"x >=" ~seed:1 ());
        Alcotest.(check bool) "telemetry restored" tel (Scdb_telemetry.Telemetry.enabled ());
        Alcotest.(check bool) "trace restored" trace (Scdb_trace.Trace.enabled ()));
  ]

let suites = [ ("gis.report", report_tests) ]
