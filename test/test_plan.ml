(* Tests for the static cost model (Scdb_plan): the budget-equality
   invariant (the runtime and the planner call the same formulas),
   monotonicity of predicted cost in the accuracy parameters, and the
   spatialdb-plan/1 JSON round trip. *)

module Plan = Scdb_plan.Plan
module Cost = Scdb_plan.Cost
module J = Scdb_json.Json
module Chernoff = Scdb_sampling.Chernoff
module HR = Scdb_sampling.Hit_and_run
module W = Scdb_sampling.Walk
module Volume = Scdb_sampling.Volume
module Union = Scdb_core.Union
module Inter = Scdb_core.Inter

let t name f = Alcotest.test_case name `Quick f

let leaf ?(eps = 0.2) ?(delta = 0.1) ?(dim = 2) () =
  Plan.dfk ~eps ~delta ~dim ~method_:"walk" ~constraints:3 ~volume_budget:2000 ()

let plan_of ?(eps = 0.2) ?(delta = 0.1) ~task node =
  Plan.finalize ~gamma:0.05 ~eps ~delta ~task node

(* ---------------- budget equality ---------------- *)

(* The invariant the shared Cost module exists for: the budget a plan
   node advertises is the budget the runtime spends, because both call
   the same function.  Checked both at the formula level (runtime
   delegation) and at the plan-attribute level. *)
let equality_tests =
  [
    t "union trials: runtime = Cost = plan attribute" (fun () ->
        List.iter
          (fun (m, delta) ->
            Alcotest.(check int)
              (Printf.sprintf "m=%d delta=%g" m delta)
              (Cost.union_trials ~m ~delta)
              (Union.trials_for ~m ~delta))
          [ (1, 0.1); (2, 0.1); (5, 0.05); (17, 0.01); (3, 0.5) ];
        let children = [ leaf (); leaf () ] in
        let plan = plan_of ~task:(Plan.Sample 1) (Plan.union_ ~eps:0.2 ~delta:0.1 children) in
        match plan.Plan.root.Plan.op with
        | Plan.Union_op { trials; _ } ->
            Alcotest.(check int) "plan union trials" (Union.trials_for ~m:2 ~delta:0.1) trials
        | _ -> Alcotest.fail "root is not a union");
    t "volume fractions: runtime cap = 2 x plan attribute" (fun () ->
        (* The plan predicts the stopping rule's expected trials at the
           acceptance floor; a run that never hits stops at twice it. *)
        let cap ~eps ~delta ~p_floor =
          (Chernoff.estimate_fraction_stopping (Scdb_rng.Rng.create 0) ~eps ~delta ~p_floor
             ~max_trials:Cost.fraction_trials_cap (fun _ -> false))
            .Chernoff.trials
        in
        let eps = 0.2 and delta = 0.1 in
        (match
           (plan_of ~task:Plan.Volume (Plan.union_ ~eps ~delta [ leaf (); leaf () ])).Plan.root.Plan.op
         with
        | Plan.Union_op { volume_trials; _ } ->
            Alcotest.(check int) "union" (2 * volume_trials)
              (cap ~eps:(eps /. 3.0) ~delta:(delta /. 4.0) ~p_floor:0.5)
        | _ -> Alcotest.fail "root is not a union");
        (* An intersection's fraction at its polynomial acceptance
           floor, at the formula level. *)
        let p_lower = Cost.poly_floor ~dim:2 ~poly_degree:3 in
        Alcotest.(check int) "inter"
          (2 * Cost.stopping_trials ~eps:(eps /. 2.0) ~delta:(delta /. 4.0) ~p_lower)
          (cap ~eps:(eps /. 2.0) ~delta:(delta /. 4.0) ~p_floor:p_lower));
    t "intersection budget: runtime = Cost" (fun () ->
        List.iter
          (fun (dim, k, delta) ->
            Alcotest.(check int)
              (Printf.sprintf "dim=%d k=%d delta=%g" dim k delta)
              (Cost.rejection_budget ~dim ~poly_degree:k ~delta)
              (Inter.budget_for ~dim ~poly_degree:k ~delta))
          [ (1, 1, 0.1); (2, 1, 0.1); (3, 2, 0.05); (6, 2, 0.01) ]);
    t "chernoff sizing: runtime = Cost" (fun () ->
        List.iter
          (fun (eps, delta) ->
            Alcotest.(check int)
              (Printf.sprintf "additive eps=%g delta=%g" eps delta)
              (Cost.samples_for_additive ~eps ~delta)
              (Chernoff.samples_for_additive ~eps ~delta);
            Alcotest.(check int)
              (Printf.sprintf "ratio eps=%g delta=%g" eps delta)
              (Cost.samples_for_ratio ~eps ~delta ~p_lower:0.25)
              (Chernoff.samples_for_ratio ~eps ~delta ~p_lower:0.25))
          [ (0.3, 0.2); (0.1, 0.1); (0.05, 0.01) ]);
    t "volume phases pinned for d = 1..10" (fun () ->
        (* ⌈d·log₂ max(2, d^1.5)⌉; d = 2 is 3, where a log-quotient
           rounding once made it 4. *)
        Alcotest.(check (list int))
          "phases" [ 1; 3; 8; 12; 18; 24; 30; 36; 43; 50 ]
          (List.init 10 (fun i -> Cost.volume_phases ~dim:(i + 1) ())));
    t "volume phases: runtime = Cost" (fun () ->
        (* The estimator's phase count is the Cost formula at the
           rounding's aspect ratio, on the bodies and seeds whose
           streams the phase-walk tests pin (a small budget: the count
           is fixed by the rounding, before any phase samples). *)
        let bodies = Test_sampling.phase_bodies () in
        List.iter
          (fun (name, seed, _, _) ->
            let body = List.assoc name bodies in
            match Volume.estimate (Scdb_rng.Rng.create seed) ~budget:(Volume.Practical 2) body with
            | Some r ->
                Alcotest.(check int)
                  (Printf.sprintf "%s seed %d" name seed)
                  (Cost.volume_phases ~dim:(Scdb_polytope.Polytope.dim body)
                     ~aspect:r.Volume.rounding_ratio ())
                  r.Volume.phases
            | None -> Alcotest.failf "%s seed %d: estimation failed" name seed)
          Test_sampling.pinned_estimates);
    t "walk schedules: runtime = Cost = plan attribute" (fun () ->
        for dim = 1 to 8 do
          Alcotest.(check int)
            (Printf.sprintf "hit-and-run dim=%d" dim)
            (Cost.hit_and_run_steps ~dim) (HR.default_steps ~dim);
          Alcotest.(check int)
            (Printf.sprintf "lattice dim=%d" dim)
            (Cost.lattice_steps ~dim ~eps:0.2)
            (W.default_steps ~dim ~eps:0.2)
        done;
        let node = Plan.dfk ~eps:0.2 ~delta:0.1 ~dim:3 ~method_:"walk" () in
        match node.Plan.op with
        | Plan.Dfk { walk_steps; _ } ->
            Alcotest.(check int) "plan walk steps" (HR.default_steps ~dim:3) walk_steps
        | _ -> Alcotest.fail "not a dfk leaf");
  ]

(* ---------------- monotonicity ---------------- *)

let total ?(eps = 0.2) ?(delta = 0.1) ?(arity = 2) ?(dim = 2) task =
  let children = List.init arity (fun _ -> leaf ~eps:(eps /. 3.0) ~delta:(delta /. 4.0) ~dim ()) in
  let root =
    if arity = 1 then leaf ~eps ~delta ~dim () else Plan.union_ ~eps ~delta children
  in
  (plan_of ~eps ~delta ~task root).Plan.total_work

let check_nondecreasing name xs =
  List.iteri
    (fun i (label, w) ->
      if i > 0 then begin
        let _, prev = List.nth xs (i - 1) in
        if w < prev then
          Alcotest.fail (Printf.sprintf "%s: %s gives %g < previous %g" name label w prev)
      end)
    xs

let monotonicity_tests =
  [
    t "total work non-decreasing in 1/eps" (fun () ->
        check_nondecreasing "volume task, shrinking eps"
          (List.map
             (fun eps -> (Printf.sprintf "eps=%g" eps, total ~eps Plan.Volume))
             [ 0.5; 0.3; 0.2; 0.1; 0.05 ]));
    t "total work non-decreasing in ln(1/delta)" (fun () ->
        check_nondecreasing "sample task, shrinking delta"
          (List.map
             (fun delta -> (Printf.sprintf "delta=%g" delta, total ~delta (Plan.Sample 4)))
             [ 0.5; 0.2; 0.1; 0.01; 0.001 ]));
    t "total work non-decreasing in dimension" (fun () ->
        check_nondecreasing "sample task, growing dim"
          (List.map
             (fun dim -> (Printf.sprintf "dim=%d" dim, total ~dim (Plan.Sample 4)))
             [ 1; 2; 3; 5; 8 ]));
    t "total work non-decreasing in union arity" (fun () ->
        check_nondecreasing "sample task, growing arity"
          (List.map
             (fun arity -> (Printf.sprintf "arity=%d" arity, total ~arity (Plan.Sample 4)))
             [ 2; 3; 5; 9 ]));
    t "sample budget non-decreasing in n" (fun () ->
        check_nondecreasing "growing n"
          (List.map
             (fun n -> (Printf.sprintf "n=%d" n, total (Plan.Sample n)))
             [ 1; 10; 100 ]));
  ]

(* ---------------- JSON round trip ---------------- *)

(* A union over a leaf of every sampling method. *)
let mixed_plan () =
  let leaf method_ =
    Plan.dfk ~eps:0.2 ~delta:0.025 ~dim:2 ~method_ ~constraints:3 ~volume_budget:2000 ()
  in
  plan_of ~task:(Plan.Report 10)
    (Plan.union_ ~eps:0.2 ~delta:0.1 [ leaf "walk"; leaf "grid"; leaf "rejection" ])

let json_tests =
  [
    t "to_json parses and round-trips bit-exactly" (fun () ->
        (* A plan as built, and one the optimizing pass tagged and
           repriced (the Figure 1 union). *)
        let rewritten =
          let module PE = Scdb_gis.Plan_exec in
          Scdb_constr.Parser.parse ~vars:[ "x"; "y" ]
            "(x >= 0 /\\ y >= 0 /\\ x + y <= 1) \\/ (x >= 2 /\\ x <= 3 /\\ y >= 0 /\\ y <= 1)"
          |> Relation.of_formula ~dim:2
          |> PE.prepare ~gamma:0.05 ~eps:0.2 ~delta:0.1 ~task:(Plan.Sample 4)
               (Scdb_rng.Rng.create 7)
          |> Option.get |> PE.optimize
        in
        List.iter
          (fun plan ->
            let s = J.to_string (Plan.to_json plan) in
            let doc = J.parse s in
            Alcotest.(check string) "schema" Plan.schema (J.field "schema" J.str doc);
            match Plan.of_json doc with
            | Error m -> Alcotest.fail ("of_json: " ^ m)
            | Ok plan' ->
                Alcotest.(check int) "node_count" plan.Plan.node_count plan'.Plan.node_count;
                Alcotest.(check (float 0.0)) "total_work" plan.Plan.total_work
                  plan'.Plan.total_work;
                Array.iteri
                  (fun i b ->
                    Alcotest.(check (float 0.0))
                      (Printf.sprintf "budget[%d]" i)
                      b
                      plan'.Plan.budgets.(i))
                  plan.Plan.budgets;
                Alcotest.(check string) "re-emission is identical" s
                  (J.to_string (Plan.to_json plan')))
          [ mixed_plan (); rewritten.Scdb_gis.Plan_exec.plan ]);
    t "of_json rejects a broken document" (fun () ->
        let bad = J.parse {|{"schema": "spatialdb-plan/1", "task": "sample"}|} in
        match Plan.of_json bad with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "accepted a document without a root");
    t "stopping-rule nodes hold their granted delta" (fun () ->
        (* A union's fraction runs a stopping rule, whose δ does not
           depend on the trials it ran; a dfk leaf's δ still follows its
           work ratio. *)
        let module PE = Scdb_gis.Plan_exec in
        let plan = plan_of ~task:Plan.Volume (Plan.union_ ~eps:0.2 ~delta:0.1 [ leaf (); leaf () ]) in
        let grants = Plan.error_budget plan in
        let row id op actual =
          let g = grants.(id) in
          { PE.id; op; tags = []; predicted = 1.0; actual; eps = g.Plan.g_eps;
            delta = g.Plan.g_delta }
        in
        let rows = [| row 0 "union" 0.3; row 1 "dfk" 0.5; row 2 "dfk" Float.nan |] in
        let r i = rows.(i) in
        Alcotest.(check (float 0.0)) "union: granted" (r 0).PE.delta (PE.delta_achieved (r 0));
        Alcotest.(check (float 0.0)) "union: zero slack" 0.0 (PE.slack (r 0));
        Alcotest.(check (float 1e-15)) "dfk: work ratio"
          (Cost.delta_at_work_ratio ~delta:(r 1).PE.delta ~ratio:0.5)
          (PE.delta_achieved (r 1));
        Alcotest.(check bool) "never ran: nan" true (Float.is_nan (PE.delta_achieved (r 2))));
    t "budget rows cover every node exactly once" (fun () ->
        let plan = mixed_plan () in
        let rows = Plan.work_budgets plan in
        Alcotest.(check int) "row count" plan.Plan.node_count (Array.length rows);
        Array.iteri
          (fun i (id, name, w) ->
            Alcotest.(check int) "dense ids" i id;
            Alcotest.(check bool) "named" true (name <> "");
            Alcotest.(check bool) "finite budget" true (Float.is_finite w && w >= 0.0))
          rows);
  ]

let suites =
  [
    ("plan.budget_equality", equality_tests);
    ("plan.monotonicity", monotonicity_tests);
    ("plan.json", json_tests);
  ]
