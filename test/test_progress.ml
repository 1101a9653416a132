(* Tests for the progress bus (Scdb_progress): inclusive accrual onto
   the node stack, the budget-overrun watchdog (log warning + telemetry
   counter, once per node), and the percent/ETA snapshot API. *)

module Progress = Scdb_progress.Progress
module Tel = Scdb_telemetry.Telemetry
module Log = Scdb_log.Log

let t name f = Alcotest.test_case name `Quick f

(* Arm the bus (and capture log/telemetry) for one test, restoring the
   global state after — the bus is process-global. *)
let with_bus rows f =
  let tel_was = Tel.enabled () in
  Tel.set_enabled true;
  Tel.reset ();
  Log.set_enabled true;
  Log.set_stderr false;
  Log.set_level Log.Warn;
  Log.reset ();
  Progress.start ~rows ();
  Fun.protect
    ~finally:(fun () ->
      Progress.stop ();
      Log.set_enabled false;
      Log.set_stderr true;
      Tel.set_enabled tel_was)
    f

let watchdog_tests =
  [
    t "overrun fires on an artificially starved prediction" (fun () ->
        (* Budget says 10 work units; the node spends 100.  With the
           default factor 4 the watchdog must trip. *)
        with_bus [| (0, "root", 10.0) |] (fun () ->
            Progress.with_node 0 (fun () -> Progress.add_steps 100);
            Alcotest.(check int) "overrun count" 1 (Progress.overrun_count ());
            Alcotest.(check (option int))
              "telemetry counter ticked" (Some 1)
              (Tel.counter_value "progress.overruns");
            Alcotest.(check bool) "warn logged" true (Log.warn_count () >= 1);
            let logged = String.concat "\n" (Log.tail ()) in
            Alcotest.(check bool) "event name in ring" true
              (let needle = "plan.budget_overrun" in
               let n = String.length needle and l = String.length logged in
               let rec scan i = i + n <= l && (String.sub logged i n = needle || scan (i + 1)) in
               scan 0)));
    t "overrun fires once per node, not per accrual" (fun () ->
        with_bus [| (0, "root", 10.0) |] (fun () ->
            Progress.with_node 0 (fun () ->
                Progress.add_steps 100;
                Progress.add_trials 100;
                Progress.add_steps 100);
            Alcotest.(check int) "still one overrun" 1 (Progress.overrun_count ())));
    t "factor is respected and zero-budget nodes never flag" (fun () ->
        (* The watchdog factor is 4: exactly 4x the budget is not an
           overrun. *)
        with_bus
          [| (0, "root", 10.0); (1, "free", 0.0) |]
          (fun () ->
            Progress.with_node 0 (fun () -> Progress.add_steps 40);
            Alcotest.(check int) "4x the budget does not flag" 0 (Progress.overrun_count ());
            Progress.with_node 1 (fun () -> Progress.add_steps 1_000_000);
            Alcotest.(check int) "zero budget ignored" 0 (Progress.overrun_count ())));
  ]

(* A VM union of two boxes: its walks run under the leaf node ids 1 and
   2. *)
let union_program () =
  let module P = Scdb_polytope.Polytope in
  let module Plan = Scdb_plan.Plan in
  let module C = Scdb_core.Convex_obs in
  let eps = 0.2 and delta = 0.1 in
  let polys = [ P.box [| 0.0; 0.0 |] [| 3.0; 1.0 |]; P.box [| 2.0; -1.0 |] [| 5.0; 2.0 |] ] in
  let rng = Scdb_rng.Rng.create 61 in
  let pieces =
    Array.of_list
      (List.map (fun p -> Option.get (C.prepare ~config:C.practical_config rng p)) polys)
  in
  let leaf p =
    Plan.dfk ~eps:(eps /. 3.0) ~delta:(delta /. 8.0) ~dim:2 ~method_:"walk"
      ~constraints:(P.num_constraints p) ~volume_budget:2000 ()
  in
  let plan =
    Plan.finalize ~gamma:0.05 ~eps ~delta ~task:(Plan.Sample 3)
      (Plan.union_ ~eps ~delta (List.map leaf polys))
  in
  match Scdb_vm.Vm.compile ~plan ~pieces () with
  | Ok prog -> (prog, rng)
  | Error m -> Alcotest.failf "union plan did not compile: %s" m

let accrual_tests =
  [
    t "accrual is inclusive over the node stack" (fun () ->
        with_bus [| (0, "union", 100.0); (1, "leaf", 50.0) |] (fun () ->
            Progress.with_node 0 (fun () ->
                Progress.with_node 1 (fun () -> Progress.add_steps 7);
                Progress.add_trials 3);
            Alcotest.(check (float 0.0)) "leaf work" 7.0 (Progress.actual_work 1);
            Alcotest.(check (float 0.0)) "root work (inclusive)" 10.0 (Progress.actual_work 0)));
    t "work outside any with_node lands on the root" (fun () ->
        with_bus [| (0, "root", 10.0); (1, "leaf", 5.0) |] (fun () ->
            Progress.add_steps 4;
            Alcotest.(check (float 0.0)) "root" 4.0 (Progress.actual_work 0);
            Alcotest.(check (float 0.0)) "leaf untouched" 0.0 (Progress.actual_work 1)));
    t "accrual is a no-op when the bus is inactive" (fun () ->
        Alcotest.(check bool) "inactive" false (Progress.active ());
        Progress.add_steps 5;
        Progress.with_node 3 (fun () -> Progress.add_trials 5));
    t "ids outside the armed rows are skipped" (fun () ->
        let prog, rng = union_program () in
        with_bus [| (0, "root", 0.0) |] (fun () ->
            ignore (Scdb_vm.Vm.sample_many prog rng ~n:3);
            Alcotest.(check bool) "root accrued the walks" true (Progress.actual_work 0 > 0.0);
            Alcotest.(check int) "one row" 1 (Array.length (Progress.rows ()))));
  ]

let snapshot_tests =
  [
    t "eta appears once work lands and shrinks toward completion" (fun () ->
        with_bus [| (0, "root", 100.0) |] (fun () ->
            Alcotest.(check bool) "no eta before work" true (Progress.eta () = None);
            Progress.with_node 0 (fun () -> Progress.add_steps 50);
            match Progress.eta () with
            | None -> Alcotest.fail "eta missing after work"
            | Some e -> Alcotest.(check bool) "finite, non-negative" true
                (Float.is_finite e && e >= 0.0)));
    t "render_line mentions every node" (fun () ->
        with_bus [| (0, "union", 100.0); (1, "dfk", 50.0) |] (fun () ->
            Progress.with_node 0 (fun () -> Progress.add_steps 10);
            let line = Progress.render_line () in
            Alcotest.(check bool) "non-empty" true (String.length line > 0);
            List.iter
              (fun needle ->
                let n = String.length needle and l = String.length line in
                let rec scan i = i + n <= l && (String.sub line i n = needle || scan (i + 1)) in
                Alcotest.(check bool) (needle ^ " present") true (scan 0))
              [ "union"; "dfk"; "%" ]));
    t "actuals survive stop until the next start" (fun () ->
        with_bus [| (0, "root", 10.0) |] (fun () ->
            Progress.with_node 0 (fun () -> Progress.add_steps 6));
        (* with_bus's finally already stopped the bus. *)
        Alcotest.(check bool) "inactive" false (Progress.active ());
        Alcotest.(check (float 0.0)) "actual readable" 6.0 (Progress.actual_work 0);
        Progress.start ~rows:[| (0, "root", 1.0) |] ();
        Alcotest.(check (float 0.0)) "reset by start" 0.0 (Progress.actual_work 0);
        Progress.stop ());
  ]

let suites =
  [
    ("progress.watchdog", watchdog_tests);
    ("progress.accrual", accrual_tests);
    ("progress.snapshot", snapshot_tests);
  ]
