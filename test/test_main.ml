(* Entry point: one alcotest section per library. *)

let () =
  Alcotest.run "spatialdb"
    (List.concat
       [
         Test_bigint.suites;
         Test_rational.suites;
         Test_linalg.suites;
         Test_rng.suites;
         Test_lp.suites;
         Test_constr.suites;
         Test_qe.suites;
         Test_polytope.suites;
         Test_hull.suites;
         Test_sampling.suites;
         Test_core.suites;
         Test_gis.suites;
         Test_uniformity.suites;
         Test_pyramid.suites;
         Test_json.suites;
         Test_telemetry.suites;
         Test_trace.suites;
         Test_diag.suites;
         Test_report.suites;
         Test_log.suites;
         Test_flight.suites;
         Test_plan.suites;
         Test_vm.suites;
         Test_progress.suites;
         Test_obs.suites;
         Test_ledger.suites;
         Test_audit.suites;
         Test_cli.suites;
       ])
