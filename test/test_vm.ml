(* Tests for the optimizing pass and its engine: the [Vm] facade the
   end-to-end benchmark drives must draw the interpreter's stream on
   the same plan, the rewrites must tag and price what they claim, the
   interpreter's warm draw loop must stay near allocation-free, and
   committed flight records (strict-VM ones included) must replay. *)

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

let box2 x0 x1 y0 y1 =
  P.box [| x0; y0 |] [| x1; y1 |]

(* [Flight.run]'s stream against the [Vm] facade's on the plan as
   built (or rewritten, under vm-opt), from the same seed. *)
let facade_case ~what (a : Flight.args) =
  let oi = run_ok a in
  let relation =
    match Flight.parse_relation ~vars:a.Flight.vars a.Flight.formula with
    | Ok r -> r
    | Error m -> Alcotest.failf "%s: %s" what m
  in
  let config = Result.get_ok (Flight.config_of_method a.Flight.method_) in
  let rng = Rng.create a.Flight.seed in
  match
    Plan_exec.compiled_of_relation ~config ~optimize:(a.Flight.engine = "vm-opt")
      ~gamma:Flight.gamma ~eps:a.Flight.eps ~delta:a.Flight.delta ~task:(Plan.Sample a.Flight.n)
      rng relation
  with
  | Some (_, Ok prog) ->
      check_streams (what ^ " streams") oi.Flight.points (Vm.sample_many prog rng ~n:a.Flight.n);
      Alcotest.(check int) (what ^ " draw counts") (Rng.draw_count oi.Flight.rng) (Rng.draw_count rng)
  | Some (_, Error m) -> Alcotest.failf "%s: compile failed: %s" what m
  | None -> Alcotest.failf "%s: nothing prepared" what

let union_case ~seed ~k ~n =
  let formula = boxes_formula (Rng.create (1000 + k)) k in
  facade_case ~what:(Printf.sprintf "union K=%d" k) (flight_args ~seed ~n formula);
  facade_case ~what:(Printf.sprintf "vm-opt union K=%d" k) (flight_args ~engine:"vm-opt" ~seed ~n formula)

(* One plan pipeline: the GIS evaluator builds each convex piece as
   [prepare ~task:Volume |> optimize |> observe] at the CLI's default
   (γ, ε, δ), so from one seed it draws the same points with the same
   number of rng draws as that pipeline run by hand; and [spatialdb
   explain] on the same seed prints the plan [Plan_exec.prepare] builds
   over the pieces that survived. *)
let pipeline_case (label, vars, formula) =
  let relation =
    match Flight.parse_relation ~vars formula with
    | Ok r -> r
    | Error m -> Alcotest.failf "%s: %s" label m
  in
  let gamma = Flight.gamma and eps = Flight.default_eps and delta = Flight.default_delta in
  let n = 3 and seed = 17 and task = Plan.Volume in
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
  let optimized = Plan_exec.observe (Plan_exec.optimize prepared) in
  let pts_p = Observable.sample_many optimized rng_p params ~n in
  check_streams (label ^ " streams") pts_e pts_p;
  Alcotest.(check int) (label ^ " draw counts") (Rng.draw_count rng_e) (Rng.draw_count rng_p);
  let code, explained =
    Test_cli.run_stdout
      (Printf.sprintf "explain -v %s -f %s --seed %d --task volume --format json"
         (String.concat "," vars) (Filename.quote formula) seed)
  in
  Alcotest.(check int) (label ^ " explain exits 0") 0 code;
  Alcotest.(check string) (label ^ " explain plan = prepared plan")
    (Scdb_json.Json.to_string (Plan.to_json prepared.Plan_exec.plan))
    explained

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
        facade_case ~what:"grid" { (flight_args ~seed:5 ~n:3 formula) with Flight.method_ = "grid" });
    ts "rejection-method union mirrors the interpreter" (fun () ->
        let formula = boxes_formula (Rng.create 78) 2 in
        facade_case ~what:"rejection"
          { (flight_args ~seed:6 ~n:3 formula) with Flight.method_ = "rejection" });
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
        | Some (plan, Ok _) -> (
            match plan.Plan.root.Plan.op with
            | Plan.Dfk { method_; _ } ->
                Alcotest.(check string) "method" "rejection" method_;
                Alcotest.(check (list string)) "tags" [ Plan.rejection_box_substituted ]
                  plan.Plan.root.Plan.tags
            | _ -> Alcotest.fail "a triangle plans one leaf")
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

let exact_ids (plan : Plan.t) =
  List.filter_map
    (fun (c : Plan.node) -> if List.mem Plan.exact_weight c.Plan.tags then Some c.Plan.id else None)
    plan.Plan.root.Plan.children

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
        Alcotest.(check (list int)) "both leaves tagged" (leaf_ids plan) (exact_ids plan);
        Alcotest.(check int) "no call before a weight is needed" 0 at_compile;
        let calls = lasserre_calls (fun () -> ignore (Vm.sample_many prog (Rng.create 70) ~n:4)) in
        Alcotest.(check bool)
          (Printf.sprintf "0 < %d calls <= bound %g" calls (call_bound relation))
          true
          (calls > 0 && float_of_int calls <= call_bound relation);
        let strict, _ = compile_opt ~optimize:false ~seed:7 relation in
        Alcotest.(check (list int)) "the plan as built stays on DFK" [] (exact_ids strict));
    ts "the 9 parcel leaves take exact weights" (fun () ->
        let relation = parcels () in
        let plan, prog = compile_opt ~seed:8 relation in
        Alcotest.(check int) "nine leaves" 9 (List.length (leaf_ids plan));
        Alcotest.(check (list int)) "every leaf tagged" (leaf_ids plan) (exact_ids plan);
        let calls = lasserre_calls (fun () -> ignore (Vm.sample_many prog (Rng.create 80) ~n:2)) in
        Alcotest.(check bool) "calls within the bound" true
          (float_of_int calls <= call_bound relation));
    ts "a 10-simplex leaf keeps its DFK weight and makes no Lasserre call" (fun () ->
        let relation = simplices10 () in
        Alcotest.(check (float 1.0)) "bound" 28_671_512.0 (call_bound relation /. 2.0);
        let plan, _ = compile_opt ~seed:9 relation in
        Alcotest.(check (list int)) "untagged at the shipped budget" [] (exact_ids plan);
        (* A small phase budget keeps the DFK weights quick to run. *)
        let small = { cfg with Convex_obs.volume_budget = Scdb_sampling.Volume.Practical 10 } in
        let plan, prog = compile_opt ~config:small ~seed:9 relation in
        Alcotest.(check (list int)) "untagged" [] (exact_ids plan);
        Alcotest.(check int) "no Lasserre call" 0
          (lasserre_calls (fun () -> ignore (Vm.sample_many prog (Rng.create 90) ~n:1))));
    t "explain --format program now gone: the plan JSON names the route of every leaf weight"
      (fun () ->
        let plan, _ = compile_opt ~seed:7 (parse [ "x"; "y" ] fig1_union) in
        let leaves =
          Scdb_json.Json.field "root"
            (Scdb_json.Json.field "children"
               (Scdb_json.Json.list
                  (Scdb_json.Json.field "weight" (Scdb_json.Json.field "route" Scdb_json.Json.str))))
            (Plan.to_json plan)
        in
        Alcotest.(check (list string)) "one exact route per leaf"
          [ Plan.exact_weight; Plan.exact_weight ] leaves);
    t "exact_weight tags only leaves whose volume the plan reads" (fun () ->
        let tags ~task formula =
          match
            Plan_exec.prepare ~config:cfg ~gamma:0.05 ~eps:0.2 ~delta:0.1 ~task (Rng.create 7)
              (parse [ "x"; "y" ] formula)
          with
          | Some p ->
              let plan = (Plan_exec.optimize p).Plan_exec.plan in
              List.map
                (fun id -> (Option.get (Plan.find_node plan id)).Plan.tags)
                (List.init plan.Plan.node_count Fun.id)
          | None -> Alcotest.fail "relation should be preparable"
        in
        let tri = "x >= 0 /\\ y >= 0 /\\ x + y <= 1" in
        let has_exact = List.mem Plan.exact_weight in
        Alcotest.(check (list bool)) "lone leaf under sample" [ false ]
          (List.map has_exact (tags ~task:(Plan.Sample 3) tri));
        Alcotest.(check (list bool)) "lone leaf under report" [ true ]
          (List.map has_exact (tags ~task:(Plan.Report 3) tri));
        Alcotest.(check (list bool)) "Fig. 1 union leaves" [ false; true; true ]
          (List.map has_exact (tags ~task:(Plan.Sample 3) fig1_union)));
  ]

let compile_tests =
  [
    t "piece-count mismatch is refused" (fun () ->
        (* Surplus and missing pieces, on the plan as built and through
           the optimizing pass. *)
        let rng = Rng.create 10 in
        let prep = Option.get (Convex_obs.prepare ~config:cfg rng (box2 0.0 1.0 0.0 1.0)) in
        let leaf () = Plan.dfk ~eps:0.2 ~delta:0.1 ~dim:2 ~method_:"walk" ~volume_budget:2000 () in
        let finalize = Plan.finalize ~gamma:0.05 ~eps:0.2 ~delta:0.1 ~task:(Plan.Sample 1) in
        List.iter
          (fun (what, plan, pieces) ->
            List.iter
              (fun optimize ->
                match Vm.compile ~optimize ~plan ~pieces () with
                | Error _ -> ()
                | Ok _ -> Alcotest.failf "expected a piece-count error (%s, optimize=%b)" what optimize)
              [ false; true ])
          [
            ("surplus", finalize (leaf ()), [| prep; prep |]);
            ("missing", finalize (Plan.union_ ~eps:0.2 ~delta:0.1 [ leaf (); leaf () ]), [| prep |]);
          ]);
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
  ]

(* The record with its engine argument set to [engine]. *)
let with_engine engine (r : Flightrec.t) =
  { r with Flightrec.args = ("engine", engine) :: List.remove_assoc "engine" r.Flightrec.args }

let replays what ~n r =
  match Flight.replay r with
  | Ok got -> Alcotest.(check int) (what ^ " samples") n got
  | Error m -> Alcotest.failf "%s replay diverged: %s" what m

(* A strict-VM record drew the interpreter's stream, so it replays on
   the interpreter. *)
let fixture_tests =
  [
    ts "pre-batching fixture replays, also as a vm-engine record" (fun () ->
        let r = read_fixture "incremental_k1.flightrec.json" in
        replays "interp" ~n:6 r;
        replays "vm record" ~n:6 (with_engine "vm" r));
    ts "union fixture replays through both engine names" (fun () ->
        let r = read_fixture "union_k3.flightrec.json" in
        replays "interp" ~n:6 r;
        replays "vm record" ~n:6 (with_engine "vm" r));
  ]

let replay_tests =
  [
    ts "a vm-opt record of the Figure 1 union replays bit-for-bit" (fun () ->
        let a = flight_args ~engine:"vm-opt" ~seed:42 ~n:20 fig1_union in
        replays "vm-opt" ~n:20 (Flight.to_flightrec a (run_ok a)));
  ]

(* The differential oracle of the optimizing pass: random unions of 1–4
   boxes and simplices in d = 2..8, where box substitution fires up to
   d = 6 and the exact route both fires and declines (a 10-sample phase
   budget keeps the declined DFK weights quick).  The interpreter and
   the [Vm] facade on the rewritten plan, and [Vm.compile
   ~optimize:true] on the plan as built, draw the same points with the
   same number of rng draws, every drawn point is a member, and a leaf
   is tagged box-substituted exactly when its price says so. *)
let shapes_gen =
  QCheck.Gen.(
    let* d = int_range 2 8 in
    let* k = int_range 1 4 in
    let* shapes = list_repeat k (triple bool (int_range 0 6) (int_range 1 3)) in
    let* seed = int_range 1 100_000 in
    let* n = int_range 1 4 in
    return (d, shapes, seed, n))

let shapes_text d shapes =
  let x = Printf.sprintf "x%d" in
  let tuple (simplex, lo, size) =
    let lower = List.init d (fun i -> Printf.sprintf "%s >= %d" (x i) (lo + i)) in
    let upper =
      if simplex then
        [ Printf.sprintf "%s <= %d" (String.concat " + " (List.init d x))
            ((d * lo) + (d * (d - 1) / 2) + size) ]
      else List.init d (fun i -> Printf.sprintf "%s <= %d" (x i) (lo + i + size))
    in
    "(" ^ String.concat " /\\ " (lower @ upper) ^ ")"
  in
  String.concat " \\/ " (List.map tuple shapes)

let differential (d, shapes, seed, n) =
  let config = { cfg with Convex_obs.volume_budget = Scdb_sampling.Volume.Practical 10 } in
  let relation = parse (List.init d (Printf.sprintf "x%d")) (shapes_text d shapes) in
  let gamma = 0.05 and eps = 0.2 and delta = 0.1 in
  (* Each executor starts from the seed, as a flight replay does. *)
  let prepared () =
    let rng = Rng.create seed in
    match Plan_exec.prepare ~config ~gamma ~eps ~delta ~task:(Plan.Sample n) rng relation with
    | Some p -> (rng, p)
    | None -> QCheck.Test.fail_report "a full-dimensional relation prepared nothing"
  in
  let compiled ?optimize plan pieces =
    match Vm.compile ?optimize ~plan ~pieces:(Array.of_list pieces) () with
    | Ok prog -> prog
    | Error m -> QCheck.Test.fail_reportf "compile failed: %s" m
  in
  let rng_i, p = prepared () in
  let rewritten = Plan_exec.optimize p in
  let pts_i =
    Observable.sample_many (Plan_exec.observe rewritten) rng_i
      (Params.make ~gamma ~eps ~delta ()) ~n
  in
  let rng_v, p = prepared () in
  let strict = compiled (Plan_exec.optimize p).Plan_exec.plan p.Plan_exec.pieces in
  let pts_v = Vm.sample_many strict rng_v ~n in
  let rng_o, p = prepared () in
  let opt = compiled ~optimize:true p.Plan_exec.plan p.Plan_exec.pieces in
  let pts_o = Vm.sample_many opt rng_o ~n in
  let same what a b =
    match Flightrec.compare_samples ~recorded:a ~replayed:b with
    | Ok _ -> ()
    | Error m -> QCheck.Test.fail_reportf "%s: %s" what m
  in
  same "vm vs interp" pts_i pts_v;
  same "vm-opt vs interp" pts_i pts_o;
  if Rng.draw_count rng_i <> Rng.draw_count rng_v || Rng.draw_count rng_i <> Rng.draw_count rng_o
  then
    QCheck.Test.fail_reportf "rng draws: interp %d, vm %d, vm-opt %d" (Rng.draw_count rng_i)
      (Rng.draw_count rng_v) (Rng.draw_count rng_o);
  let plan = rewritten.Plan_exec.plan in
  List.iter
    (fun x ->
      if not (Relation.mem_float ~slack:1e-6 relation x) then
        QCheck.Test.fail_report "a drawn point is not a member")
    pts_i;
  (* A leaf boxes when it does not take the exact sampler and its box
     trials a draw, exact where the pass measured the leaf's volume,
     are at most its walk schedule. *)
  Plan.iter_nodes
    (fun (n : Plan.node) ->
      match n.Plan.op with
      | Plan.Dfk { box_trials; walk_steps; _ } ->
          let trials =
            Option.value box_trials
              ~default:(float_of_int (Scdb_plan.Cost.rejection_box_trials ~dim:d))
          in
          let expected =
            (not (List.mem Plan.exact_sampler n.Plan.tags)) && trials <= float_of_int walk_steps
          in
          if List.mem Plan.rejection_box_substituted n.Plan.tags <> expected then
            QCheck.Test.fail_reportf "d = %d: box substitution %s (%g trials, %d steps)" d
              (if expected then "missing" else "unexpected")
              trials walk_steps
      | _ -> ())
    plan;
  true

let differential_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:12 ~name:"interp, vm and vm-opt agree on the rewritten plan"
         (QCheck.make
            ~print:(fun (d, shapes, seed, n) ->
              Printf.sprintf "d=%d seed=%d n=%d %s" d seed n (shapes_text d shapes))
            shapes_gen)
         differential);
  ]

(* Telemetry counters [f] moves, read after it returns. *)
let counting names f =
  let module Tel = Scdb_telemetry.Telemetry in
  let was = Tel.enabled () in
  Tel.set_enabled true;
  Tel.reset ();
  Fun.protect ~finally:(fun () -> Tel.set_enabled was) (fun () ->
      let r = f () in
      (r, List.map (fun n -> Option.value (Tel.counter_value n) ~default:0) names))

let simplex_formula vars =
  String.concat " /\\ " (List.map (fun v -> v ^ " >= 0") vars) ^ " /\\ " ^ String.concat " + " vars ^ " <= 1"

let xs d = List.init d (fun i -> Printf.sprintf "x%d" (i + 1))

let the_leaf (plan : Plan.t) =
  match plan.Plan.root.Plan.op with
  | Plan.Dfk d -> (plan.Plan.root, d.method_, d.box_trials, d.exact_build)
  | _ -> Alcotest.fail "a one-tuple relation plans one leaf"

let compile_task ~task ~seed relation =
  match
    Plan_exec.compiled_of_relation ~config:cfg ~optimize:true ~gamma:0.05 ~eps:0.2 ~delta:0.1 ~task
      (Rng.create seed) relation
  with
  | Some (plan, Ok prog) -> (plan, prog)
  | Some (_, Error m) -> Alcotest.failf "compile failed: %s" m
  | None -> Alcotest.fail "relation should be compilable"

let exact_sampler_tests =
  [
    t "a box leaf is priced at its exact acceptance, within 10% over 2000 draws" (fun () ->
        (* Ten budgeted draws: the lattice's build does not pay off, so
           the triangle keeps its box, priced by the lattice's volume. *)
        let relation = parse [ "x"; "y" ] "x >= 0 /\\ y >= 0 /\\ x + y <= 1" in
        let plan, prog = compile_task ~task:(Plan.Sample 10) ~seed:5 relation in
        let leaf, _, box_trials, _ = the_leaf plan in
        Alcotest.(check (list string)) "box" [ Plan.rejection_box_substituted ] leaf.Plan.tags;
        let priced =
          match box_trials with Some t -> t | None -> Alcotest.fail "box priced by its volume"
        in
        let _, counts =
          counting [ "rejection.attempts"; "rejection.accepted" ] (fun () ->
              Vm.sample_many prog (Rng.create 6) ~n:2000)
        in
        let measured =
          match counts with
          | [ attempts; accepted ] -> float_of_int attempts /. float_of_int accepted
          | _ -> assert false
        in
        Alcotest.(check bool)
          (Printf.sprintf "measured %.4f vs priced %.4f trials a draw" measured priced)
          true
          (Float.abs (measured -. priced) <= 0.1 *. priced));
    t "the 6-simplex takes the exact sampler, one trial a draw, on both executors" (fun () ->
        let vars = xs 6 in
        let formula = simplex_formula vars in
        let a = { (flight_args ~engine:"vm-opt" ~seed:12 ~n:40 formula) with Flight.vars } in
        let o = run_ok a in
        let leaf, method_, _, _ = the_leaf o.Flight.plan in
        Alcotest.(check (list string)) "tagged" [ Plan.exact_sampler ] leaf.Plan.tags;
        Alcotest.(check string) "method" "exact" method_;
        (match Plan.draw_route ~calls:40.0 leaf with
        | Some (_, exact, walk, Some box) ->
            Alcotest.(check bool)
              (Printf.sprintf "exact %.0f < walk %.0f, box %.0f" exact walk box)
              true
              (exact < walk && exact < box)
        | _ -> Alcotest.fail "all three routes priced");
        Alcotest.(check (float 1e-9)) "one trial a draw" 40.0 o.Flight.plan.Plan.budgets.(0);
        facade_case ~what:"6-simplex" a;
        List.iter
          (fun x -> Alcotest.(check bool) "member" true (Relation.mem_float ~slack:1e-9 o.Flight.relation x))
          o.Flight.points);
    t "a 12-cube keeps its walk, with one decline warning" (fun () ->
        let vars = xs 12 in
        let relation =
          parse vars (String.concat " /\\ " (List.map (fun v -> Printf.sprintf "0 <= %s /\\ %s <= 1" v v) vars))
        in
        let (plan, prog), counts =
          counting [ "vm.exact_declined" ] (fun () ->
              compile_task ~task:(Plan.Sample 100) ~seed:4 relation)
        in
        let leaf, method_, _, exact_build = the_leaf plan in
        Alcotest.(check (list int)) "one warning" [ 1 ] counts;
        Alcotest.(check string) "walk" "walk" method_;
        Alcotest.(check (list string)) "untagged" [] leaf.Plan.tags;
        Alcotest.(check bool) "no lattice priced" true (exact_build = None);
        Alcotest.(check bool) "explain shows the walk" true
          (let s = Plan.to_text_tree plan in
           let pat = "method=walk" in
           let n = String.length s and k = String.length pat in
           let rec go i = i + k <= n && (String.sub s i k = pat || go (i + 1)) in
           go 0);
        Alcotest.(check int) "draws" 2 (List.length (Vm.sample_many prog (Rng.create 1) ~n:2)));
  ]

(* Minor words per warm draw of the interpreter on the rewritten plan:
   the weights, the child parameters and the trial budget are worked out
   once, membership runs on lowered rows, and what is left is the drawn
   points, their options and the list cell. *)
let words_per_draw formula =
  let n = 2000 and gamma = 0.05 and eps = 0.2 and delta = 0.1 in
  let rng = Rng.create 42 in
  let p =
    match
      Plan_exec.prepare ~config:cfg ~gamma ~eps ~delta ~task:(Plan.Sample n) rng
        (parse [ "x"; "y" ] formula)
    with
    | Some p -> p
    | None -> Alcotest.fail "relation should be preparable"
  in
  let obs = Plan_exec.observe (Plan_exec.optimize p) in
  let params = Params.make ~gamma ~eps ~delta () in
  ignore (Observable.sample_many obs rng params ~n:1);
  let w0 = Gc.minor_words () in
  ignore (Observable.sample_many obs rng params ~n);
  (Gc.minor_words () -. w0) /. float_of_int n

let three_boxes =
  "(0 <= x /\\ x <= 2 /\\ 0 <= y /\\ y <= 1) \\/ (1 <= x /\\ x <= 3 /\\ 0 <= y /\\ y <= 1) \\/ \
   (0.5 <= x /\\ x <= 2.5 /\\ 0.5 <= y /\\ y <= 1.5)"

let alloc_tests =
  List.map
    (fun (what, formula, bound) ->
      t (Printf.sprintf "a warm vm-opt draw on the %s allocates at most %g words" what bound)
        (fun () ->
          let w = words_per_draw formula in
          Alcotest.(check bool) (Printf.sprintf "%.1f words a draw" w) true (w <= bound)))
    [ ("Figure 1 union", fig1_union, 24.0); ("three-box union", three_boxes, 32.0) ]

let suites =
  [
    ("vm.mirror", mirror_tests);
    ("vm.opt", opt_tests);
    ("vm.exact_weight", exact_weight_tests);
    ("vm.exact_sampler", exact_sampler_tests);
    ("vm.compile", compile_tests);
    ("vm.fixtures", fixture_tests @ replay_tests);
    ("vm.differential", differential_tests);
    ("vm.alloc", alloc_tests);
  ]
