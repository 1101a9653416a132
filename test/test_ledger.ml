(* Tests for the per-plan-node work profile and the perf-trend ledger:
   the rewrite tags sit on the plan, with the progress bus armed every
   leaf accrues its own work (the same through the [Vm] facade as
   through the interpreter) and the ledger joins the plan's budgets,
   tags and grants with what the bus accrued, arming it never moves the
   stream, and the trend ledger flags drifting trajectories. *)

open Scdb_core
module Rng = Scdb_rng.Rng
module Plan = Scdb_plan.Plan
module Plan_exec = Scdb_gis.Plan_exec
module Progress = Scdb_progress.Progress
module Vm = Scdb_vm.Vm
module Flightrec = Scdb_log.Flightrec

let t name f = Alcotest.test_case name `Quick f
let ts name f = Alcotest.test_case name `Slow f

let cfg = Convex_obs.practical_config

let fig1_union =
  "(x >= 0 /\\ y >= 0 /\\ x + y <= 1) \\/ (x >= 2 /\\ x <= 3 /\\ y >= 0 /\\ y <= 1)"

let relation_of formula = Relation.of_formula ~dim:2 (Parser.parse ~vars:[ "x"; "y" ] formula)

(* The prepared Figure 1 union, rewritten under [optimize], and the rng
   its draws continue on. *)
let prepared ?(optimize = false) ~task ~seed formula =
  let rng = Rng.create seed in
  match
    Plan_exec.prepare ~config:cfg ~gamma:0.05 ~eps:0.2 ~delta:0.1 ~task rng (relation_of formula)
  with
  | Some p -> ((if optimize then Plan_exec.optimize p else p), rng)
  | None -> Alcotest.fail "fixture relation is empty"

let params = Params.make ~gamma:0.05 ~eps:0.2 ~delta:0.1 ()

(* [n] draws with the bus armed; the ledger and the bus's own rows. *)
let run_armed (p : Plan_exec.prepared) rng ~n =
  let plan = p.Plan_exec.plan in
  Plan_exec.arm plan;
  ignore (Observable.sample_many (Plan_exec.observe p) rng params ~n);
  let rows = Plan_exec.ledger plan and bus = Progress.rows () in
  Progress.stop ();
  (rows, bus)

(* The [Vm] facade ([Plan_exec.compiled_of_relation], what the
   end-to-end benchmark drives) on the same relation, seed and task;
   strict unless [optimize]. *)
let compiled ?(optimize = false) ~task ~seed formula =
  let rng = Rng.create seed in
  match
    Plan_exec.compiled_of_relation ~config:cfg ~optimize ~gamma:0.05 ~eps:0.2 ~delta:0.1 ~task
      rng (relation_of formula)
  with
  | Some (plan, Ok prog) -> (plan, prog, rng)
  | Some (_, Error m) -> Alcotest.failf "compile failed: %s" m
  | None -> Alcotest.fail "fixture relation is empty"

let all_tags (plan : Plan.t) =
  let tags = ref [] in
  Plan.iter_nodes (fun (n : Plan.node) -> tags := n.Plan.tags @ !tags) plan;
  !tags

let symbolization_tests =
  [
    t "vm-opt tags rejection-box substitution on the Figure 1 union" (fun () ->
        let p, _ = prepared ~optimize:true ~task:(Plan.Sample 2) ~seed:7 fig1_union in
        Alcotest.(check bool) "some leaf is tagged" true
          (List.mem Plan.rejection_box_substituted (all_tags p.Plan_exec.plan)));
    t "strict vm carries no rewrite tags" (fun () ->
        let plan, _, _ = compiled ~task:(Plan.Sample 2) ~seed:7 fig1_union in
        Alcotest.(check (list string)) "no tags" [] (all_tags plan));
  ]

(* Disjoint boxes on a deterministic pseudo-random layout: K ∈ {1,4,16}
   exercises one-leaf collapse, small unions and wide ones. *)
let boxes_formula rng k =
  String.concat " \\/ "
    (List.init k (fun i ->
         let x0 = 3.0 *. float_of_int i in
         let w = 0.5 +. Rng.uniform rng 0.0 1.5 in
         let h = 0.5 +. Rng.uniform rng 0.0 1.5 in
         Printf.sprintf "(x >= %g /\\ x <= %g /\\ y >= 0 /\\ y <= %g)" x0 (x0 +. w) h))

(* The facade builds the interpreter's tagged tree, so with the bus
   armed its per-node actuals equal the interpreter's. *)
let attribution_case k n () =
  let formula = boxes_formula (Rng.create 99) k in
  let task = Plan.Sample n and seed = 3000 + (17 * k) + n in
  let p, rng = prepared ~task ~seed formula in
  let interp_rows, _ = run_armed p rng ~n in
  let vm_rows =
    let plan, prog, rng = compiled ~task ~seed formula in
    Plan_exec.arm plan;
    ignore (Vm.sample_many prog rng ~n);
    let rows = Plan_exec.ledger plan in
    Progress.stop ();
    rows
  in
  Alcotest.(check int) "same node count" (Array.length interp_rows) (Array.length vm_rows);
  Array.iteri
    (fun i (ir : Plan_exec.row) ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "node %d (%s) actual work" ir.Plan_exec.id ir.Plan_exec.op)
        ir.Plan_exec.actual vm_rows.(i).Plan_exec.actual)
    interp_rows

let attribution_tests =
  [
    t "strict vm per-node actuals equal the interpreter's (K=1)" (attribution_case 1 6);
    t "strict vm per-node actuals equal the interpreter's (K=4)" (attribution_case 4 6);
    ts "strict vm per-node actuals equal the interpreter's (K=16)" (attribution_case 16 4);
    t "vm leaf nodes accrue their own actuals (facade, interp and vm-opt)" (fun () ->
        let leaves rows =
          List.filter (fun (r : Plan_exec.row) -> r.Plan_exec.op = "dfk") (Array.to_list rows)
        in
        let facade =
          let plan, prog, rng = compiled ~optimize:true ~task:(Plan.Sample 8) ~seed:31 fig1_union in
          Plan_exec.arm plan;
          ignore (Vm.sample_many prog rng ~n:8);
          let rows = Plan_exec.ledger plan in
          Progress.stop ();
          rows
        in
        let engine optimize =
          let p, rng = prepared ~optimize ~task:(Plan.Sample 8) ~seed:31 fig1_union in
          fst (run_armed p rng ~n:8)
        in
        List.iter
          (fun (what, rows) ->
            Alcotest.(check int) (what ^ ": two leaves") 2 (List.length (leaves rows));
            List.iter
              (fun (r : Plan_exec.row) ->
                Alcotest.(check bool)
                  (Printf.sprintf "%s: leaf %d ran" what r.Plan_exec.id)
                  true (r.Plan_exec.actual > 0.0))
              (leaves rows))
          [ ("facade", facade); ("interp", engine false); ("vm-opt", engine true) ]);
    t "the ledger joins plan, bus and grants on a vm-opt union" (fun () ->
        let p, rng = prepared ~optimize:true ~task:(Plan.Sample 8) ~seed:41 fig1_union in
        let plan = p.Plan_exec.plan in
        let rows, bus = run_armed p rng ~n:8 in
        let grants = Plan.error_budget plan in
        let same what a b = Alcotest.(check bool) what true (Float.equal a b) in
        Alcotest.(check int) "one row per node" plan.Plan.node_count (Array.length rows);
        Array.iteri
          (fun i (r : Plan_exec.row) ->
            let what = Printf.sprintf "node %d %s" r.Plan_exec.id in
            Alcotest.(check int) (what "id") i r.Plan_exec.id;
            same (what "predicted = bus budget") bus.(i).Progress.budget r.Plan_exec.predicted;
            same (what "actual = bus steps + trials") (Progress.row_work bus.(i))
              r.Plan_exec.actual;
            Alcotest.(check string) (what "op") grants.(i).Plan.g_op r.Plan_exec.op;
            Alcotest.(check (list string)) (what "tags") (Option.get (Plan.find_node plan i)).Plan.tags
              r.Plan_exec.tags;
            same (what "eps = grant") grants.(i).Plan.g_eps r.Plan_exec.eps;
            same (what "delta = grant") grants.(i).Plan.g_delta r.Plan_exec.delta)
          rows);
  ]

(* A run with the per-node work profile armed (the progress bus, as
   [--progress] arms it) draws the stream of a run without it: the
   tagged tree's attribution never touches the rng. *)
let check_streams what expected actual =
  match Flightrec.compare_samples ~recorded:expected ~replayed:actual with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "%s: %s" what m

let stream_tests =
  [
    t "profiled runs emit the bit-identical stream (progress bus armed or not)" (fun () ->
        List.iter
          (fun optimize ->
            let what = if optimize then "vm-opt" else "interp" in
            let draw ~armed =
              let p, rng = prepared ~optimize ~task:(Plan.Sample 6) ~seed:41 fig1_union in
              if armed then Plan_exec.arm p.Plan_exec.plan;
              let pts = Observable.sample_many (Plan_exec.observe p) rng params ~n:6 in
              if armed then Progress.stop ();
              (pts, Rng.draw_count rng)
            in
            let plain, plain_draws = draw ~armed:false and armed, armed_draws = draw ~armed:true in
            check_streams what plain armed;
            Alcotest.(check int) (what ^ " rng draws") plain_draws armed_draws)
          [ false; true ]);
  ]

(* ------------------------------------------------------------------ *)
(* Trend ledger CLI                                                    *)
(* ------------------------------------------------------------------ *)

let regress_exe =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bench" "regress.exe")

let write_bench path rows =
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"schema\": \"spatialdb-bench/7\",\n  \"results\": [\n%s\n  ]\n}\n"
    (String.concat ",\n"
       (List.map
          (fun (name, ns) ->
            Printf.sprintf "    {\"name\": %S, \"ns_per_op\": %.3f, \"trials\": 9}" name ns)
          rows));
  close_out oc

let trend_run files =
  Sys.command
    (Filename.quote regress_exe ^ " --trend "
    ^ String.concat " " (List.map Filename.quote files)
    ^ " >/dev/null 2>&1")

let trend_tests =
  [
    t "regress.exe exists where the test expects it" (fun () ->
        Alcotest.(check bool) regress_exe true (Sys.file_exists regress_exe));
    t "trend exits 1 on an unrecovered normalized drift" (fun () ->
        (* Machine speed doubles between files 2 and 3 (ref 1000 -> 500)
           while the metric only drops to 80: normalized it drifts
           0.10 -> 0.10 -> 0.16, a 1.6x ending — the BENCH_3 shape. *)
        write_bench "trend_d1.json" [ ("hit_and_run.step.seed", 1000.0); ("kernel.x", 100.0) ];
        write_bench "trend_d2.json" [ ("hit_and_run.step.seed", 1000.0); ("kernel.x", 100.0) ];
        write_bench "trend_d3.json" [ ("hit_and_run.step.seed", 500.0); ("kernel.x", 80.0) ];
        Alcotest.(check int) "exit 1"
          1
          (trend_run [ "trend_d1.json"; "trend_d2.json"; "trend_d3.json" ]));
    t "trend exits 0 when the drift recovered" (fun () ->
        write_bench "trend_r1.json" [ ("hit_and_run.step.seed", 1000.0); ("kernel.x", 100.0) ];
        write_bench "trend_r2.json" [ ("hit_and_run.step.seed", 1000.0); ("kernel.x", 160.0) ];
        write_bench "trend_r3.json" [ ("hit_and_run.step.seed", 1000.0); ("kernel.x", 100.0) ];
        Alcotest.(check int) "exit 0"
          0
          (trend_run [ "trend_r1.json"; "trend_r2.json"; "trend_r3.json" ]));
    t "trend skips metrics under the noise floor" (fun () ->
        (* A 4 ns kernel doubling is timer jitter, not a regression:
           under the default 50 ns floor it must not fail, but the same
           shape above the floor must.  The floor keys off the series
           maximum, so a kernel regressing *past* the floor re-enters. *)
        write_bench "trend_f1.json" [ ("hit_and_run.step.seed", 1000.0); ("kernel.tiny", 4.0) ];
        write_bench "trend_f2.json" [ ("hit_and_run.step.seed", 1000.0); ("kernel.tiny", 8.0) ];
        Alcotest.(check int) "sub-floor jitter passes" 0
          (trend_run [ "trend_f1.json"; "trend_f2.json" ]);
        Alcotest.(check int) "same shape fails with --trend-floor 0" 1
          (trend_run [ "--trend-floor"; "0"; "trend_f1.json"; "trend_f2.json" ]);
        write_bench "trend_f3.json" [ ("hit_and_run.step.seed", 1000.0); ("kernel.tiny", 90.0) ];
        Alcotest.(check int) "regressing past the floor re-enters the ledger" 1
          (trend_run [ "trend_f1.json"; "trend_f2.json"; "trend_f3.json" ]));
    t "trend baseline shrugs off one skewed-reference file" (fun () ->
        (* In file 3 the reference kernel ran 2x slow, deflating every
           normalized value in that file by the same common-mode
           factor.  A minimum baseline would be poisoned forever (the
           honest file 4 reads 2x its minimum); the median baseline
           must pass it. *)
        write_bench "trend_s1.json" [ ("hit_and_run.step.seed", 1000.0); ("kernel.x", 100.0) ];
        write_bench "trend_s2.json" [ ("hit_and_run.step.seed", 1000.0); ("kernel.x", 100.0) ];
        write_bench "trend_s3.json" [ ("hit_and_run.step.seed", 2000.0); ("kernel.x", 100.0) ];
        write_bench "trend_s4.json" [ ("hit_and_run.step.seed", 1000.0); ("kernel.x", 100.0) ];
        Alcotest.(check int) "exit 0" 0
          (trend_run [ "trend_s1.json"; "trend_s2.json"; "trend_s3.json"; "trend_s4.json" ]);
        (* ... while an ending that sits above the typical level by more
           than the threshold still fails even though the skewed file
           dragged the median down a little. *)
        write_bench "trend_s5.json" [ ("hit_and_run.step.seed", 1000.0); ("kernel.x", 140.0) ];
        Alcotest.(check int) "regressed ending still fails" 1
          (trend_run
             [ "trend_s1.json"; "trend_s2.json"; "trend_s3.json"; "trend_s4.json"; "trend_s5.json" ]));
    t "trend flags the committed BENCH_1..3 drift retroactively" (fun () ->
        (* The incremental hit-and-run kernel silently regressed
           1624 -> 2046 ns between BENCH_2 and BENCH_3 while the seed
           reference barely moved; the ledger must catch it. *)
        let root f = Filename.concat "../../.." f in
        if Sys.file_exists (root "BENCH_1.json") then
          Alcotest.(check int) "exit 1" 1
            (trend_run [ root "BENCH_1.json"; root "BENCH_2.json"; root "BENCH_3.json" ]));
    t "regress.exe rejects an unknown flag before measuring" (fun () ->
        let run args = Sys.command (Filename.quote regress_exe ^ " " ^ args ^ " >/dev/null 2>&1") in
        Alcotest.(check int) "unknown flag" 2 (run "--fast --bogus-flag");
        Alcotest.(check int) "under --trend" 2 (run "--trend --bogus-flag");
        Alcotest.(check int) "stray argument" 2 (run "--fast stray"));
  ]

let suites =
  [
    ("profile.symbolization", symbolization_tests);
    ("profile.attribution", attribution_tests);
    ("profile.stream", stream_tests);
    ("profile.trend", trend_tests);
  ]
