(* Differential tests for the plan→kernel VM: the strict engine must be
   a bit-exact mirror of the observable interpreter (same rng stream,
   same sample stream), the optimized engine must stay inside the
   relation, and committed flight records must replay through both
   engines. *)

open Scdb_core
module P = Scdb_polytope.Polytope
module Rng = Scdb_rng.Rng
module Plan = Scdb_plan.Plan
module Vm = Scdb_vm.Vm
module Flight = Scdb_gis.Flight
module Plan_exec = Scdb_gis.Plan_exec
module Flightrec = Scdb_log.Flightrec

let t name f = Alcotest.test_case name `Quick f
let ts name f = Alcotest.test_case name `Slow f

let cfg = Convex_obs.practical_config

let check_streams what expected actual =
  match Flightrec.compare_samples ~recorded:expected ~replayed:actual with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "%s: %s" what m

(* Disjoint boxes on a deterministic pseudo-random layout: box i sits at
   x ∈ [3i, 3i + w] with w, h drawn from a seeded rng, so K ∈ {1,4,16}
   exercises one-leaf collapse, small unions and wide dispatch tables. *)
let boxes_formula rng k =
  String.concat " \\/ "
    (List.init k (fun i ->
         let x0 = 3.0 *. float_of_int i in
         let w = 0.5 +. Rng.uniform rng 0.0 1.5 in
         let h = 0.5 +. Rng.uniform rng 0.0 1.5 in
         Printf.sprintf "(x >= %g /\\ x <= %g /\\ y >= 0 /\\ y <= %g)" x0 (x0 +. w) h))

let flight_args ?(engine = "interp") ?(n = 4) ~seed formula =
  {
    Flight.vars = [ "x"; "y" ];
    formula;
    n;
    seed;
    eps = 0.2;
    delta = 0.1;
    method_ = "walk";
    engine;
  }

let run_ok a =
  match Flight.run a with
  | Ok o -> o
  | Error m -> Alcotest.failf "Flight.run (%s) failed: %s" a.Flight.engine m

let read_fixture name =
  let path =
    Filename.concat (Filename.dirname Sys.executable_name) (Filename.concat "fixtures" name)
  in
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  match Flightrec.of_json text with
  | Ok r -> r
  | Error m -> Alcotest.failf "fixture %s did not parse: %s" name m

(* Hand-built inter/diff harness: prepare the pieces once per engine
   from the same seed (identical preprocessing draws), then sample
   through the interpreter and through the strict VM and compare. *)

let box2 x0 x1 y0 y1 =
  P.box [| x0; y0 |] [| x1; y1 |]

let prepare_all seed polys =
  let rng = Rng.create seed in
  let preps = List.map (fun p -> Option.get (Convex_obs.prepare ~config:cfg rng p)) polys in
  (rng, Array.of_list preps)

let drain_draws o = Rng.draw_count o

let inter_case ~seed ~n =
  let polys = [ box2 0.0 2.0 0.0 1.0; box2 1.0 3.0 0.0 1.0 ] in
  let eps = 0.2 and delta = 0.1 and gamma = 0.05 in
  let m = List.length polys in
  let sub_eps = eps /. 3.0 and sub_delta = delta /. float_of_int (4 * m) in
  let leaf () =
    List.map
      (fun (p : P.t) ->
        Plan.dfk ~eps:sub_eps ~delta:sub_delta ~dim:(P.dim p) ~method_:"walk"
          ~constraints:(P.num_constraints p) ~volume_budget:2000 ())
      polys
  in
  let plan =
    Plan.finalize ~gamma ~eps ~delta ~task:(Plan.Sample n)
      (Plan.inter_ ~eps ~delta (leaf ()))
  in
  (* interpreter run *)
  let rng_i, preps_i = prepare_all seed polys in
  let obs = Inter.inter (List.map Convex_obs.observe (Array.to_list preps_i)) in
  let params = Params.make ~gamma ~eps ~delta () in
  let pts_i = Observable.sample_many obs rng_i params ~n in
  (* strict vm run *)
  let rng_v, preps_v = prepare_all seed polys in
  let prog =
    match Vm.compile ~plan ~pieces:preps_v () with
    | Ok p -> p
    | Error m -> Alcotest.failf "inter plan did not compile: %s" m
  in
  let pts_v = Vm.sample_many prog rng_v ~n in
  check_streams "inter streams" pts_i pts_v;
  Alcotest.(check int) "inter draw counts" (drain_draws rng_i) (drain_draws rng_v)

let diff_case ~seed ~n =
  let a = box2 0.0 3.0 0.0 1.0 and b = box2 2.0 5.0 (-1.0) 2.0 in
  let polys = [ a; b ] in
  let eps = 0.2 and delta = 0.1 and gamma = 0.05 in
  let sub_eps = eps /. 3.0 in
  let node p =
    Plan.dfk ~eps:sub_eps ~delta:0.1 ~dim:2 ~method_:"walk"
      ~constraints:(P.num_constraints p) ~volume_budget:2000 ()
  in
  let plan =
    Plan.finalize ~gamma ~eps ~delta ~task:(Plan.Sample n)
      (Plan.diff_ ~eps ~delta (node a) (node b))
  in
  let rng_i, preps_i = prepare_all seed polys in
  let obs =
    Diff.diff (Convex_obs.observe preps_i.(0)) (Convex_obs.observe preps_i.(1))
  in
  let params = Params.make ~gamma ~eps ~delta () in
  let pts_i = Observable.sample_many obs rng_i params ~n in
  let rng_v, preps_v = prepare_all seed polys in
  let prog =
    match Vm.compile ~plan ~pieces:preps_v () with
    | Ok p -> p
    | Error m -> Alcotest.failf "diff plan did not compile: %s" m
  in
  let pts_v = Vm.sample_many prog rng_v ~n in
  check_streams "diff streams" pts_i pts_v;
  Alcotest.(check int) "diff draw counts" (drain_draws rng_i) (drain_draws rng_v)

let union_case ~seed ~k ~n =
  let formula = boxes_formula (Rng.create (1000 + k)) k in
  let oi = run_ok (flight_args ~seed ~n formula) in
  let ov = run_ok (flight_args ~engine:"vm" ~seed ~n formula) in
  check_streams (Printf.sprintf "union K=%d streams" k) oi.Flight.points ov.Flight.points;
  Alcotest.(check int)
    (Printf.sprintf "union K=%d draw counts" k)
    (Rng.draw_count oi.Flight.rng) (Rng.draw_count ov.Flight.rng)

(* One preparation pipeline: the untagged GIS evaluator and the
   plan-tagged interpreter consume the same prepared pieces, so from one
   seed they draw the same points with the same number of rng draws
   (tagging never touches the stream); and EXPLAIN's static plan is the
   plan [Plan_exec.prepare] builds over the pieces that survived. *)
let pipeline_case (label, vars, formula) =
  let relation =
    match Flight.parse_relation ~vars formula with
    | Ok r -> r
    | Error m -> Alcotest.failf "%s: %s" label m
  in
  let eps = 0.2 and delta = 0.1 and gamma = 0.05 and n = 3 and seed = 17 in
  let task = Plan.Sample n in
  let params = Params.make ~gamma ~eps ~delta () in
  let rng_e = Rng.create seed in
  let pts_e =
    match Scdb_gis.Eval.observable_of_relation ~config:cfg rng_e relation with
    | Some obs -> Observable.sample_many obs rng_e params ~n
    | None -> Alcotest.failf "%s: Eval found no piece" label
  in
  let rng_p = Rng.create seed in
  let prepared =
    match Plan_exec.prepare ~config:cfg ~gamma ~eps ~delta ~task rng_p relation with
    | Some p -> p
    | None -> Alcotest.failf "%s: prepare found no piece" label
  in
  let pts_p = Observable.sample_many (Plan_exec.observe prepared) rng_p params ~n in
  check_streams (label ^ " streams") pts_e pts_p;
  Alcotest.(check int) (label ^ " draw counts") (Rng.draw_count rng_e) (Rng.draw_count rng_p);
  match Scdb_gis.Plan_build.of_relation ~config:cfg ~gamma ~eps ~delta ~task relation with
  | Some plan ->
      Alcotest.(check string) (label ^ " explain plan = prepared plan")
        (Scdb_json.Json.to_string (Plan.to_json prepared.Plan_exec.plan))
        (Scdb_json.Json.to_string (Plan.to_json plan))
  | None -> Alcotest.failf "%s: explain found no viable tuple" label

let fig1 = "x >= 0 /\\ y >= 0 /\\ x + y <= 1"

let pipeline_fixtures =
  [
    ("Fig. 1 triangle", [ "x"; "y" ], fig1);
    ("Fig. 1 union", [ "x"; "y" ], "(" ^ fig1 ^ ") \\/ (x >= 2 /\\ x <= 3 /\\ y >= 0 /\\ y <= 1)");
    ("3-tuple union", [ "x"; "y" ], boxes_formula (Rng.create 80) 3);
    ("simplex 4", [ "a"; "b"; "c"; "d" ],
      "a >= 0 /\\ b >= 0 /\\ c >= 0 /\\ d >= 0 /\\ a + b + c + d <= 1");
    ("union with a segment tuple", [ "x"; "y" ],
      "0 <= x <= 1 /\\ y = 0 \\/ 0 <= x <= 1 /\\ 0 <= y <= 1");
  ]

let mirror_tests =
  [
    ts "union plans: vm mirrors the interpreter bit-for-bit (K = 1, 4, 16)" (fun () ->
        List.iter (fun k -> union_case ~seed:(40 + k) ~k ~n:3) [ 1; 4; 16 ]);
    ts "grid-method union mirrors the interpreter" (fun () ->
        let formula = boxes_formula (Rng.create 77) 3 in
        let a = { (flight_args ~seed:5 ~n:3 formula) with Flight.method_ = "grid" } in
        let oi = run_ok a in
        let ov = run_ok { a with Flight.engine = "vm" } in
        check_streams "grid streams" oi.Flight.points ov.Flight.points;
        Alcotest.(check int) "grid draw counts" (Rng.draw_count oi.Flight.rng)
          (Rng.draw_count ov.Flight.rng));
    ts "rejection-method union mirrors the interpreter" (fun () ->
        let formula = boxes_formula (Rng.create 78) 2 in
        let a = { (flight_args ~seed:6 ~n:3 formula) with Flight.method_ = "rejection" } in
        let oi = run_ok a in
        let ov = run_ok { a with Flight.engine = "vm" } in
        check_streams "rejection streams" oi.Flight.points ov.Flight.points;
        Alcotest.(check int) "rejection draw counts" (Rng.draw_count oi.Flight.rng)
          (Rng.draw_count ov.Flight.rng));
    ts "intersection plans mirror the interpreter" (fun () ->
        List.iter (fun seed -> inter_case ~seed ~n:3) [ 51; 52 ]);
    ts "difference plans mirror the interpreter" (fun () ->
        List.iter (fun seed -> diff_case ~seed ~n:3) [ 61; 62 ]);
    ts "one pipeline: Eval and Plan_exec streams agree, explain plans what runs" (fun () ->
        List.iter pipeline_case pipeline_fixtures);
  ]

let opt_tests =
  [
    ts "vm-opt is deterministic and stays inside the relation" (fun () ->
        let formula = boxes_formula (Rng.create 79) 4 in
        let a = flight_args ~engine:"vm-opt" ~seed:8 ~n:12 formula in
        let o1 = run_ok a and o2 = run_ok a in
        check_streams "same seed, same stream" o1.Flight.points o2.Flight.points;
        List.iter
          (fun x ->
            Alcotest.(check bool) "member" true
              (Relation.mem_float ~slack:1e-6 o1.Flight.relation x))
          o1.Flight.points;
        Alcotest.(check int) "count" 12 (List.length o1.Flight.points));
    t "vm-opt swaps cheap low-dimensional leaves to rejection-box" (fun () ->
        let rng = Rng.create 9 in
        let relation = Relation.of_formula ~dim:2
            (Scdb_constr.Parser.parse ~vars:[ "x"; "y" ] "x >= 0 /\\ y >= 0 /\\ x + y <= 1")
        in
        match
          Plan_exec.compiled_of_relation ~config:cfg ~optimize:true ~gamma:0.05 ~eps:0.2
            ~delta:0.1 ~task:(Plan.Sample 4) rng relation
        with
        | Some (_, Ok prog) ->
            Alcotest.(check bool) "optimized" true (Vm.optimized prog);
            Alcotest.(check bool) "listing mentions rejection-box" true
              (let s = Vm.disassemble prog in
               let n = String.length s and pat = "rejection-box" in
               let k = String.length pat in
               let rec go i = i + k <= n && (String.sub s i k = pat || go (i + 1)) in
               go 0)
        | Some (_, Error m) -> Alcotest.failf "compile failed: %s" m
        | None -> Alcotest.fail "relation should be compilable");
  ]

(* The Figure 1 union, the 3×3 parcel grid of the e2e corpus (through
   its text form, so the coefficients are big rationals), and a union
   of two 10-simplices. *)
let fig1_union = "(x >= 0 /\\ y >= 0 /\\ x + y <= 1) \\/ (x >= 2 /\\ x <= 3 /\\ y >= 0 /\\ y <= 1)"

let parse vars text = Relation.of_formula ~dim:(List.length vars) (Scdb_constr.Parser.parse ~vars text)

let parcels () =
  let ps =
    Scdb_gis.Synth.parcel_grid (Rng.create 3) ~rows:3 ~cols:3 ~cell:1.0 ~jitter:0.05
  in
  parse [ "x0"; "x1" ] (Relation.to_text (List.fold_left Relation.union (List.hd ps) (List.tl ps)))

let simplices10 () =
  let xs = List.init 10 (Printf.sprintf "x%d") in
  let simplex lo =
    Printf.sprintf "(%s /\\ %s <= %d)"
      (String.concat " /\\ " (List.mapi (fun i x -> Printf.sprintf "%s >= %d" x (if i = 0 then lo else 0)) xs))
      (String.concat " + " xs) (lo + 1)
  in
  parse xs (simplex 0 ^ " \\/ " ^ simplex 2)

let compile_opt ?(config = cfg) ?(optimize = true) ~seed relation =
  match
    Plan_exec.compiled_of_relation ~config ~optimize ~gamma:0.05 ~eps:0.2 ~delta:0.1
      ~task:(Plan.Sample 4) (Rng.create seed) relation
  with
  | Some (plan, Ok prog) -> (plan, prog)
  | Some (_, Error m) -> Alcotest.failf "compile failed: %s" m
  | None -> Alcotest.fail "relation should be compilable"

let leaf_ids (plan : Plan.t) = List.map (fun (c : Plan.node) -> c.Plan.id) plan.Plan.root.Plan.children

let exact_ids prog =
  List.filter_map
    (fun (id, tags) -> if List.mem Vm.exact_weight_tag tags then Some id else None)
    (Vm.rewrite_tags prog)

(* Σ over the leaves of the proven call bound of each leaf's tuple. *)
let call_bound relation =
  List.fold_left
    (fun acc tuple ->
      acc
      +. Scdb_plan.Cost.lasserre_calls ~dim:(Relation.dim relation)
           ~rows:(Scdb_polytope.Volume_exact.tuple_rows tuple))
    0.0 (Relation.tuples relation)

(* Lasserre calls [f] spends, read from the telemetry counter. *)
let lasserre_calls f =
  let module Tel = Scdb_telemetry.Telemetry in
  let was = Tel.enabled () in
  Tel.set_enabled true;
  Tel.reset ();
  Fun.protect ~finally:(fun () -> Tel.set_enabled was) (fun () ->
      f ();
      Option.value (Tel.counter_value "vm.lasserre_calls") ~default:0)

let exact_weight_tests =
  [
    t "Figure 1 leaves take exact weights within their call bound" (fun () ->
        let relation = parse [ "x"; "y" ] fig1_union in
        let compiled = ref None in
        let at_compile = lasserre_calls (fun () -> compiled := Some (compile_opt ~seed:7 relation)) in
        let plan, prog = Option.get !compiled in
        Alcotest.(check (list int)) "both leaves tagged" (leaf_ids plan) (exact_ids prog);
        Alcotest.(check int) "no call before a weight is needed" 0 at_compile;
        let calls = lasserre_calls (fun () -> ignore (Vm.sample_many prog (Rng.create 70) ~n:4)) in
        Alcotest.(check bool)
          (Printf.sprintf "0 < %d calls <= bound %g" calls (call_bound relation))
          true
          (calls > 0 && float_of_int calls <= call_bound relation);
        let _, strict = compile_opt ~optimize:false ~seed:7 relation in
        Alcotest.(check (list int)) "strict vm stays on DFK" [] (exact_ids strict));
    ts "the 9 parcel leaves take exact weights" (fun () ->
        let relation = parcels () in
        let plan, prog = compile_opt ~seed:8 relation in
        Alcotest.(check int) "nine leaves" 9 (List.length (leaf_ids plan));
        Alcotest.(check (list int)) "every leaf tagged" (leaf_ids plan) (exact_ids prog);
        let calls = lasserre_calls (fun () -> ignore (Vm.sample_many prog (Rng.create 80) ~n:2)) in
        Alcotest.(check bool) "calls within the bound" true
          (float_of_int calls <= call_bound relation));
    ts "a 10-simplex leaf keeps its DFK weight and makes no Lasserre call" (fun () ->
        let relation = simplices10 () in
        Alcotest.(check (float 1.0)) "bound" 28_671_512.0 (call_bound relation /. 2.0);
        let _, prog = compile_opt ~seed:9 relation in
        Alcotest.(check (list int)) "untagged at the shipped budget" [] (exact_ids prog);
        (* A small phase budget keeps the DFK weights quick to run. *)
        let small = { cfg with Convex_obs.volume_budget = Scdb_sampling.Volume.Practical 10 } in
        let _, prog = compile_opt ~config:small ~seed:9 relation in
        Alcotest.(check (list int)) "untagged" [] (exact_ids prog);
        Alcotest.(check int) "no Lasserre call" 0
          (lasserre_calls (fun () -> ignore (Vm.sample_many prog (Rng.create 90) ~n:1))));
    t "explain --format program names the route of every leaf weight" (fun () ->
        let _, prog = compile_opt ~seed:7 (parse [ "x"; "y" ] fig1_union) in
        let lines =
          List.filter
            (fun l -> String.length l > 6 && String.sub l 0 6 = "; leaf")
            (String.split_on_char '\n' (Vm.disassemble prog))
        in
        Alcotest.(check int) "one line per leaf" 2 (List.length lines);
        List.iter
          (fun l ->
            Alcotest.(check bool) l true
              (let pat = "exact_weight" in
               let n = String.length l and k = String.length pat in
               let rec go i = i + k <= n && (String.sub l i k = pat || go (i + 1)) in
               go 0))
          lines);
  ]

let compile_tests =
  [
    t "piece-count mismatch is refused" (fun () ->
        let rng = Rng.create 10 in
        let prep = Option.get (Convex_obs.prepare ~config:cfg rng (box2 0.0 1.0 0.0 1.0)) in
        let plan =
          Plan.finalize ~gamma:0.05 ~eps:0.2 ~delta:0.1 ~task:(Plan.Sample 1)
            (Plan.dfk ~eps:0.2 ~delta:0.1 ~dim:2 ~method_:"walk" ~volume_budget:2000 ())
        in
        match Vm.compile ~plan ~pieces:[| prep; prep |] () with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "expected a piece-count error");
    t "volume tasks are refused" (fun () ->
        let rng = Rng.create 11 in
        let prep = Option.get (Convex_obs.prepare ~config:cfg rng (box2 0.0 1.0 0.0 1.0)) in
        let plan =
          Plan.finalize ~gamma:0.05 ~eps:0.2 ~delta:0.1 ~task:Plan.Volume
            (Plan.dfk ~eps:0.2 ~delta:0.1 ~dim:2 ~method_:"walk" ~volume_budget:2000 ())
        in
        match Vm.compile ~plan ~pieces:[| prep |] () with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "expected a task error");
    t "instruction_count and disassembly agree" (fun () ->
        let rng = Rng.create 12 in
        let relation = Relation.unit_cube 2 in
        match
          Plan_exec.compiled_of_relation ~config:cfg ~gamma:0.05 ~eps:0.2 ~delta:0.1
            ~task:(Plan.Sample 1) rng relation
        with
        | Some (_, Ok prog) ->
            let listing = Vm.disassemble prog in
            let lines =
              List.filter
                (fun l -> String.length l > 0 && l.[0] <> ';')
                (String.split_on_char '\n' listing)
            in
            Alcotest.(check int) "one line per instruction" (Vm.instruction_count prog)
              (List.length lines);
            Alcotest.(check int) "dim" 2 (Vm.dim prog);
            Alcotest.(check bool) "strict by default" false (Vm.optimized prog)
        | Some (_, Error m) -> Alcotest.failf "compile failed: %s" m
        | None -> Alcotest.fail "unit cube should be compilable");
  ]

let fixture_tests =
  [
    ts "pre-batching fixture replays through the vm engine" (fun () ->
        let r = read_fixture "incremental_k1.flightrec.json" in
        (match Flight.replay ~engine:"vm" r with
        | Ok n -> Alcotest.(check int) "samples reproduced" 6 n
        | Error m -> Alcotest.failf "vm replay diverged: %s" m);
        Rng.Provenance.set_tracking false);
    ts "union fixture replays through both engines" (fun () ->
        let r = read_fixture "union_k3.flightrec.json" in
        (match Flight.replay r with
        | Ok n -> Alcotest.(check int) "interp samples" 6 n
        | Error m -> Alcotest.failf "interp replay diverged: %s" m);
        (match Flight.replay ~engine:"vm" r with
        | Ok n -> Alcotest.(check int) "vm samples" 6 n
        | Error m -> Alcotest.failf "vm replay diverged: %s" m);
        Rng.Provenance.set_tracking false);
  ]

let suites =
  [
    ("vm.mirror", mirror_tests);
    ("vm.opt", opt_tests);
    ("vm.exact_weight", exact_weight_tests);
    ("vm.compile", compile_tests);
    ("vm.fixtures", fixture_tests);
  ]
