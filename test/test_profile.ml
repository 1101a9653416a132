(* Tests for the instruction profiler and the symbolization table: every
   pc must map to a live plan node, the strict VM's per-node progress
   actuals must equal the interpreter's (the per-leaf attribution fix),
   profiling must never perturb the sample stream, and the perf-trend
   ledger must flag drifting trajectories. *)

open Scdb_core
module Rng = Scdb_rng.Rng
module Plan = Scdb_plan.Plan
module Vm = Scdb_vm.Vm
module Profile = Scdb_profile.Profile
module Plan_exec = Scdb_gis.Plan_exec
module Progress = Scdb_progress.Progress
module Flightrec = Scdb_log.Flightrec

let t name f = Alcotest.test_case name `Quick f
let ts name f = Alcotest.test_case name `Slow f

let cfg = Convex_obs.practical_config

(* Same disjoint-box layout as test_vm: K ∈ {1,4,16} exercises one-leaf
   collapse, small unions and wide dispatch tables. *)
let boxes_formula rng k =
  String.concat " \\/ "
    (List.init k (fun i ->
         let x0 = 3.0 *. float_of_int i in
         let w = 0.5 +. Rng.uniform rng 0.0 1.5 in
         let h = 0.5 +. Rng.uniform rng 0.0 1.5 in
         Printf.sprintf "(x >= %g /\\ x <= %g /\\ y >= 0 /\\ y <= %g)" x0 (x0 +. w) h))

let fig1_union =
  "(x >= 0 /\\ y >= 0 /\\ x + y <= 1) \\/ (x >= 2 /\\ x <= 3 /\\ y >= 0 /\\ y <= 1)"

let relation_of formula = Relation.of_formula ~dim:2 (Parser.parse ~vars:[ "x"; "y" ] formula)

let compile_ok ?(optimize = false) ~task ~seed formula =
  let rng = Rng.create seed in
  match
    Plan_exec.compiled_of_relation ~config:cfg ~optimize ~gamma:0.05 ~eps:0.2 ~delta:0.1 ~task
      rng (relation_of formula)
  with
  | Some (plan, Ok prog) -> (plan, prog, rng)
  | Some (_, Error m) -> Alcotest.failf "compile failed: %s" m
  | None -> Alcotest.fail "fixture relation is empty"

let known_tags = [ Plan.rejection_box_substituted ]

(* The ledger's instructions column, summed. *)
let ledger_instructions rows =
  Array.fold_left (fun a (r : Plan_exec.row) -> a + int_of_float r.Plan_exec.instructions) 0 rows

(* ------------------------------------------------------------------ *)
(* Symbolization                                                       *)
(* ------------------------------------------------------------------ *)

let symbolization_tests =
  let check_program ~what plan prog =
    let bases = Vm.instruction_bases prog in
    Alcotest.(check bool) (what ^ ": program non-empty") true (Array.length bases > 0);
    Array.iter
      (fun pc ->
        let node = Vm.node_at prog pc in
        (match Plan.find_node plan node with
        | Some _ -> ()
        | None -> Alcotest.failf "%s: pc %d maps to node %d not present in the plan" what pc node);
        match Vm.tag_at prog pc with
        | None -> ()
        | Some tag ->
            if not (List.mem tag known_tags) then
              Alcotest.failf "%s: pc %d carries unknown tag %S" what pc tag)
      bases
  in
  [
    t "every pc maps to a live plan node (strict and optimized, K in {1,4,16})" (fun () ->
        let layout = Rng.create 99 in
        List.iter
          (fun k ->
            let formula = boxes_formula layout k in
            List.iter
              (fun optimize ->
                let what = Printf.sprintf "K=%d %s" k (if optimize then "vm-opt" else "vm") in
                let plan, prog, _ =
                  compile_ok ~optimize ~task:(Plan.Sample 2) ~seed:(1000 + k) formula
                in
                check_program ~what plan prog)
              [ false; true ])
          [ 1; 4; 16 ]);
    t "vm-opt tags rejection-box substitution on the Figure 1 union" (fun () ->
        let _, prog, _ = compile_ok ~optimize:true ~task:(Plan.Sample 2) ~seed:7 fig1_union in
        let tags = List.concat_map snd (Vm.rewrite_tags prog) in
        Alcotest.(check bool)
          "some instruction is tagged" true
          (List.mem "rejection_box_substituted" tags));
    t "strict vm carries no rewrite tags" (fun () ->
        let _, prog, _ = compile_ok ~task:(Plan.Sample 2) ~seed:7 fig1_union in
        Alcotest.(check (list string)) "no tags" [] (List.concat_map snd (Vm.rewrite_tags prog)));
    t "annotated disassembly names nodes and tags" (fun () ->
        let _, prog, _ = compile_ok ~optimize:true ~task:(Plan.Sample 2) ~seed:7 fig1_union in
        let text = Vm.disassemble prog in
        let has needle =
          let ln = String.length needle and lt = String.length text in
          let rec go i = i + ln <= lt && (String.sub text i ln = needle || go (i + 1)) in
          go 0
        in
        Alcotest.(check bool) "node annotation" true (has "; n0");
        Alcotest.(check bool) "tag annotation" true (has "rejection_box_substituted"));
  ]

(* ------------------------------------------------------------------ *)
(* Counting mode                                                       *)
(* ------------------------------------------------------------------ *)

let counting_tests =
  [
    t "counting totals agree across the pc/opcode/node views" (fun () ->
        let n = 8 in
        let plan, prog, rng = compile_ok ~task:(Plan.Sample n) ~seed:21 fig1_union in
        let profile = Profile.create prog in
        ignore (Profile.sample_many profile rng ~n);
        let total = Profile.total_count profile in
        Alcotest.(check bool) "instructions executed" true (total > 0);
        let sum_pc =
          Array.fold_left (fun a (r : Profile.pc_row) -> a + r.Profile.count) 0
            (Profile.pc_rows profile)
        in
        let sum_op =
          List.fold_left (fun a (r : Profile.opcode_row) -> a + r.Profile.op_count) 0
            (Profile.per_opcode profile)
        in
        let sum_node = ledger_instructions (Plan_exec.ledger ~profile plan) in
        Alcotest.(check int) "pc view" total sum_pc;
        Alcotest.(check int) "opcode view" total sum_op;
        Alcotest.(check int) "node view" total sum_node;
        Alcotest.(check (float 0.0)) "no ns in counting mode" 0.0 (Profile.total_ns profile);
        let emits =
          List.filter_map
            (fun (r : Profile.opcode_row) ->
              if r.Profile.op_name = "emit" then Some r.Profile.op_count else None)
            (Profile.per_opcode profile)
        in
        Alcotest.(check (list int)) "one emit per draw" [ n ] emits);
    t "pc_rows covers every instruction, ascending" (fun () ->
        let _, prog, rng = compile_ok ~task:(Plan.Sample 2) ~seed:22 fig1_union in
        let profile = Profile.create prog in
        ignore (Profile.sample_many profile rng ~n:2);
        let rows = Profile.pc_rows profile in
        let bases = Vm.instruction_bases prog in
        Alcotest.(check int) "coverage" (Array.length bases) (Array.length rows);
        Array.iteri
          (fun i (r : Profile.pc_row) ->
            Alcotest.(check int) (Printf.sprintf "row %d pc" i) bases.(i) r.Profile.pc)
          rows);
    t "vm.op telemetry counters track executed instructions" (fun () ->
        let module Tel = Scdb_telemetry.Telemetry in
        let was = Tel.enabled () in
        Tel.set_enabled true;
        Tel.reset ();
        let n = 4 in
        let _, prog, rng = compile_ok ~task:(Plan.Sample n) ~seed:23 fig1_union in
        let profile = Profile.create prog in
        ignore (Profile.sample_many profile rng ~n);
        let counted =
          List.fold_left
            (fun acc (r : Profile.opcode_row) ->
              let tel =
                Option.value ~default:0 (Tel.counter_value ("vm.op." ^ r.Profile.op_name))
              in
              Alcotest.(check int) ("vm.op." ^ r.Profile.op_name) r.Profile.op_count tel;
              acc + tel)
            0 (Profile.per_opcode profile)
        in
        Tel.set_enabled was;
        Alcotest.(check int) "telemetry total" (Profile.total_count profile) counted);
  ]

(* ------------------------------------------------------------------ *)
(* Per-node attribution: strict VM vs interpreter                      *)
(* ------------------------------------------------------------------ *)

(* The strict VM mirrors the interpreter draw for draw, so with the
   progress bus armed both engines must accrue identical per-node
   actuals — this is the differential check that WALK/TICK route
   work through the per-leaf symbolization paths rather than dumping
   everything on the root. *)
let attribution_case k n () =
  let formula = boxes_formula (Rng.create 99) k in
  let task = Plan.Sample n in
  let seed = 3000 + (17 * k) + n in
  let interp_rows =
    let rng = Rng.create seed in
    match
      Plan_exec.observable_of_relation ~config:cfg ~gamma:0.05 ~eps:0.2 ~delta:0.1 ~task rng
        (relation_of formula)
    with
    | None -> Alcotest.fail "interp fixture empty"
    | Some (plan, obs) ->
        Plan_exec.arm plan;
        let params = Params.make ~gamma:0.05 ~eps:0.2 ~delta:0.1 () in
        ignore (Observable.sample_many obs rng params ~n);
        let rows = Plan_exec.ledger plan in
        Progress.stop ();
        rows
  in
  let vm_rows =
    let plan, prog, rng = compile_ok ~task ~seed formula in
    Plan_exec.arm plan;
    ignore (Vm.sample_many prog rng ~n);
    let rows = Plan_exec.ledger plan in
    Progress.stop ();
    rows
  in
  Alcotest.(check int) "same node count" (Array.length interp_rows) (Array.length vm_rows);
  Array.iteri
    (fun i (ir : Plan_exec.row) ->
      let vr = vm_rows.(i) in
      Alcotest.(check int) (Printf.sprintf "node %d id" i) ir.Plan_exec.id vr.Plan_exec.id;
      Alcotest.(check (float 0.0))
        (Printf.sprintf "node %d (%s) actual work" ir.Plan_exec.id ir.Plan_exec.op)
        ir.Plan_exec.actual vr.Plan_exec.actual)
    interp_rows

let attribution_tests =
  [
    t "strict vm per-node actuals equal the interpreter's (K=1)" (attribution_case 1 6);
    t "strict vm per-node actuals equal the interpreter's (K=4)" (attribution_case 4 6);
    ts "strict vm per-node actuals equal the interpreter's (K=16)" (attribution_case 16 4);
    t "vm leaf nodes accrue their own actuals" (fun () ->
        let plan, prog, rng = compile_ok ~task:(Plan.Sample 8) ~seed:31 fig1_union in
        Plan_exec.arm plan;
        ignore (Vm.sample_many prog rng ~n:8);
        let rows = Plan_exec.ledger plan in
        Progress.stop ();
        let leaves =
          Array.to_list rows
          |> List.filter (fun (r : Plan_exec.row) -> r.Plan_exec.op = "dfk")
        in
        Alcotest.(check int) "two leaves" 2 (List.length leaves);
        List.iter
          (fun (r : Plan_exec.row) ->
            Alcotest.(check bool)
              (Printf.sprintf "leaf %d ran" r.Plan_exec.id)
              true (r.Plan_exec.actual > 0.0))
          leaves);
    t "the ledger joins plan, bus and profile on a vm-opt union" (fun () ->
        let n = 8 in
        let plan, prog, rng =
          compile_ok ~optimize:true ~task:(Plan.Sample n) ~seed:41 fig1_union
        in
        let profile = Profile.create prog in
        Plan_exec.arm plan;
        ignore (Profile.sample_many profile rng ~n);
        let rows = Plan_exec.ledger ~profile plan in
        let bus = Progress.rows () in
        Progress.stop ();
        let grants = Plan.error_budget plan in
        let same what a b = Alcotest.(check bool) what true (Float.equal a b) in
        Alcotest.(check int) "one row per node" plan.Plan.node_count (Array.length rows);
        Alcotest.(check int) "instructions sum to the profile's total"
          (Profile.total_count profile)
          (ledger_instructions rows);
        Array.iteri
          (fun i (r : Plan_exec.row) ->
            let what = Printf.sprintf "node %d %s" r.Plan_exec.id in
            Alcotest.(check int) (what "id") i r.Plan_exec.id;
            same (what "predicted = bus budget") bus.(i).Progress.budget r.Plan_exec.predicted;
            same (what "actual = bus steps + trials") (Progress.row_work bus.(i))
              r.Plan_exec.actual;
            Alcotest.(check string) (what "op") grants.(i).Plan.g_op r.Plan_exec.op;
            same (what "eps = grant") grants.(i).Plan.g_eps r.Plan_exec.eps;
            same (what "delta = grant") grants.(i).Plan.g_delta r.Plan_exec.delta;
            Alcotest.(check bool)
              (what "no ns in counting mode") true (Float.is_nan r.Plan_exec.ns))
          rows);
  ]

(* ------------------------------------------------------------------ *)
(* Stream preservation                                                 *)
(* ------------------------------------------------------------------ *)

let check_streams what expected actual =
  match Flightrec.compare_samples ~recorded:expected ~replayed:actual with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "%s: %s" what m

let stream_tests =
  [
    t "profiled runs emit the bit-identical stream (counting and timing)" (fun () ->
        let n = 6 in
        List.iter
          (fun optimize ->
            let plain =
              let _, prog, rng = compile_ok ~optimize ~task:(Plan.Sample n) ~seed:41 fig1_union in
              Vm.sample_many prog rng ~n
            in
            List.iter
              (fun mode ->
                let _, prog, rng =
                  compile_ok ~optimize ~task:(Plan.Sample n) ~seed:41 fig1_union
                in
                let profile = Profile.create ~mode prog in
                let pts = Profile.sample_many profile rng ~n in
                check_streams
                  (Printf.sprintf "%s/%s"
                     (if optimize then "vm-opt" else "vm")
                     (Profile.mode_name mode))
                  plain pts;
                Alcotest.(check int) "draws recorded" n (Profile.draws profile))
              [ Profile.Counting; Profile.Timing ])
          [ false; true ]);
    t "timing mode accumulates ns on the kernel opcodes" (fun () ->
        let _, prog, rng = compile_ok ~task:(Plan.Sample 8) ~seed:42 fig1_union in
        let profile = Profile.create ~mode:Profile.Timing prog in
        ignore (Profile.sample_many profile rng ~n:8);
        Alcotest.(check bool) "total ns positive" true (Profile.total_ns profile > 0.0);
        Array.iter
          (fun (r : Profile.pc_row) ->
            if Float.is_nan r.Profile.ns || r.Profile.ns < 0.0 then
              Alcotest.failf "pc %d has bad ns %g" r.Profile.pc r.Profile.ns)
          (Profile.pc_rows profile));
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
    ("profile.counting", counting_tests);
    ("profile.attribution", attribution_tests);
    ("profile.stream", stream_tests);
    ("profile.trend", trend_tests);
  ]
