(* Tests for the telemetry additions: monotonic timer, histogram
   quantiles, schema v2 dump. *)

module Tel = Scdb_telemetry.Telemetry

let t name f = Alcotest.test_case name `Quick f

let with_enabled f =
  let was = Tel.enabled () in
  Tel.set_enabled true;
  Tel.reset ();
  Fun.protect ~finally:(fun () -> Tel.set_enabled was) f

let clock_tests =
  [
    t "monotonic and strictly advancing" (fun () ->
        let a = Tel.Clock.now () in
        (* Burn a little CPU so the clock must advance. *)
        let acc = ref 0.0 in
        for i = 1 to 100_000 do
          acc := !acc +. sqrt (float_of_int i)
        done;
        ignore !acc;
        let b = Tel.Clock.now () in
        Alcotest.(check bool) "b > a" true (b > a));
    t "never goes backwards across many reads" (fun () ->
        let prev = ref (Tel.Clock.now ()) in
        for _ = 1 to 10_000 do
          let x = Tel.Clock.now () in
          if x < !prev then Alcotest.fail "clock went backwards";
          prev := x
        done);
    t "timer measures a positive duration" (fun () ->
        with_enabled (fun () ->
            let timer = Tel.Timer.make "test.timer" in
            let tok = Tel.Timer.start timer in
            let acc = ref 0.0 in
            for i = 1 to 100_000 do
              acc := !acc +. sqrt (float_of_int i)
            done;
            ignore !acc;
            Tel.Timer.stop timer tok;
            match Tel.histogram_count "test.timer.seconds" with
            | Some n -> Alcotest.(check int) "one observation" 1 n
            | None -> Alcotest.fail "timer histogram missing"));
  ]

let quantile_tests =
  [
    t "empty histogram quantiles are zero" (fun () ->
        with_enabled (fun () ->
            let h = Tel.Histogram.make "test.q.empty" in
            Alcotest.(check (float 0.0)) "p50" 0.0 (Tel.Histogram.quantile h 0.5)));
    t "single observation pins every quantile" (fun () ->
        with_enabled (fun () ->
            let h = Tel.Histogram.make "test.q.single" in
            Tel.Histogram.observe h 3.25;
            List.iter
              (fun q ->
                Alcotest.(check (float 1e-9)) "pinned" 3.25 (Tel.Histogram.quantile h q))
              [ 0.0; 0.5; 0.9; 0.99; 1.0 ]));
    t "quantiles are monotone and bracketed by min/max" (fun () ->
        with_enabled (fun () ->
            let h = Tel.Histogram.make "test.q.mono" in
            let rng = Scdb_rng.Rng.create 11 in
            for _ = 1 to 1000 do
              Tel.Histogram.observe h (Scdb_rng.Rng.uniform rng 0.0 10.0)
            done;
            let p50 = Tel.Histogram.quantile h 0.50 in
            let p90 = Tel.Histogram.quantile h 0.90 in
            let p99 = Tel.Histogram.quantile h 0.99 in
            Alcotest.(check bool) "p50 <= p90" true (p50 <= p90);
            Alcotest.(check bool) "p90 <= p99" true (p90 <= p99);
            Alcotest.(check bool) "within range" true (p50 >= 0.0 && p99 <= 10.0)));
    t "uniform sample p50 lands near the median" (fun () ->
        with_enabled (fun () ->
            let h = Tel.Histogram.make "test.q.uniform" in
            let rng = Scdb_rng.Rng.create 5 in
            for _ = 1 to 20_000 do
              Tel.Histogram.observe h (Scdb_rng.Rng.uniform rng 0.0 1.0)
            done;
            let p50 = Tel.Histogram.quantile h 0.50 in
            (* Log-spaced buckets are coarse but the interpolated median
               of U[0,1] must land in the right neighbourhood. *)
            Alcotest.(check bool) "p50 near 0.5" true (p50 > 0.3 && p50 < 0.7)));
    t "dump carries schema v2 and quantile keys" (fun () ->
        with_enabled (fun () ->
            let h = Tel.Histogram.make "test.q.dump" in
            Tel.Histogram.observe h 1.0;
            Tel.Histogram.observe h 2.0;
            let json = Scdb_json.Json.to_string (Tel.dump ~only_nonzero:true ()) in
            let contains needle =
              let nl = String.length needle and l = String.length json in
              let rec go i = i + nl <= l && (String.sub json i nl = needle || go (i + 1)) in
              go 0
            in
            Alcotest.(check bool) "schema v2" true (contains "spatialdb-telemetry/2");
            Alcotest.(check bool) "p50" true (contains "\"p50\"");
            Alcotest.(check bool) "p90" true (contains "\"p90\"");
            Alcotest.(check bool) "p99" true (contains "\"p99\"")));
  ]

let suites = [ ("telemetry.clock", clock_tests); ("telemetry.quantile", quantile_tests) ]
