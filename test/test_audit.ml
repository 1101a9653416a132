(* Tests for the (ε,δ) accuracy-contract auditor: canonical relation
   fingerprints, exact oracles, the Clopper–Pearson bracket, coverage
   verification (including the corrupted-budget regression and the
   domains-vs-seq differential), and whole-relation audits. *)

module A = Scdb_audit.Audit
module Plan_exec = Scdb_gis.Plan_exec
module Rng = Scdb_rng.Rng
module Tel = Scdb_telemetry.Telemetry
module VE = Scdb_polytope.Volume_exact
module Ch = Scdb_sampling.Chernoff
module Q = Rational

let t name f = Alcotest.test_case name `Quick f
let ts name f = Alcotest.test_case name `Slow f
let q = Q.of_int
let qq a b = Q.of_ints a b

let check_fp_eq name a b =
  Alcotest.(check string) name (Relation.fingerprint a) (Relation.fingerprint b)

let check_fp_ne name a b =
  Alcotest.(check bool) name true (Relation.fingerprint a <> Relation.fingerprint b)

(* x >= 0 /\ y >= 0 /\ x + y <= 1, built from atoms so the tests can
   permute and rescale the representation. *)
let tri_atoms =
  [
    Atom.ge (Term.var 0) Term.zero;
    Atom.ge (Term.var 1) Term.zero;
    Atom.le (Term.add (Term.var 0) (Term.var 1)) (Term.const Q.one);
  ]

let triangle = Relation.make ~dim:2 [ tri_atoms ]

let fingerprint_tests =
  [
    t "16 lowercase hex digits" (fun () ->
        let fp = Relation.fingerprint triangle in
        Alcotest.(check int) "length" 16 (String.length fp);
        Alcotest.(check bool) "hex" true
          (String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) fp));
    t "insensitive to atom order within a tuple" (fun () ->
        check_fp_eq "reversed atoms" triangle (Relation.make ~dim:2 [ List.rev tri_atoms ]));
    t "insensitive to tuple order and duplicate tuples" (fun () ->
        let b = Relation.box [| q 2; q 0 |] [| q 3; q 1 |] in
        let ta = List.hd (Relation.tuples triangle) and tb = List.hd (Relation.tuples b) in
        check_fp_eq "swapped tuples" (Relation.make ~dim:2 [ ta; tb ])
          (Relation.make ~dim:2 [ tb; ta ]);
        check_fp_eq "duplicated tuple" (Relation.make ~dim:2 [ ta ])
          (Relation.make ~dim:2 [ ta; ta ]));
    t "insensitive to positive atom rescaling" (fun () ->
        let scaled =
          Atom.le
            (Term.add (Term.monomial (q 2) 0) (Term.monomial (q 2) 1))
            (Term.const (q 2))
        in
        check_fp_eq "2x+2y<=2 is x+y<=1"
          triangle
          (Relation.make ~dim:2
             [ [ List.nth tri_atoms 0; List.nth tri_atoms 1; scaled ] ]));
    t "equations are sign-normalized" (fun () ->
        let pos = Atom.eq (Term.var 0) (Term.const Q.one) in
        let neg = Atom.eq (Term.neg (Term.var 0)) (Term.const Q.minus_one) in
        check_fp_eq "x=1 is -x=-1" (Relation.make ~dim:1 [ [ pos ] ])
          (Relation.make ~dim:1 [ [ neg ] ]));
    t "stable across the small/big bigint boundary" (fun () ->
        (* 2^62 overflows the tagged-int fast path, so rescaling by it
           exercises the big-integer rational branch of the canonical
           form. *)
        let big = Q.of_string "4611686018427387904" in
        let huge =
          Atom.le
            (Term.add (Term.monomial big 0) (Term.monomial big 1))
            (Term.const big)
        in
        check_fp_eq "2^62 x + 2^62 y <= 2^62 is x+y<=1" triangle
          (Relation.make ~dim:2
             [ [ List.nth tri_atoms 0; List.nth tri_atoms 1; huge ] ]));
    t "dimension is part of the key" (fun () ->
        let a = Atom.ge (Term.var 0) Term.zero in
        check_fp_ne "same atoms, different ambient dim"
          (Relation.make ~dim:1 [ [ a ] ])
          (Relation.make ~dim:2 [ [ a ] ]));
    t "no collisions across the example corpus" (fun () ->
        let shapes =
          [
            Relation.unit_cube 1;
            Relation.unit_cube 2;
            Relation.unit_cube 3;
            Relation.standard_simplex 2;
            Relation.standard_simplex 3;
            Relation.box [| q 0; q 0 |] [| q 2; q 3 |];
            Relation.cube 2 (q 2);
            Relation.cross_polytope 2 Q.one;
            Relation.union triangle (Relation.box [| q 2; q 0 |] [| q 3; q 1 |]);
            Relation.inter (Relation.unit_cube 2) (Relation.cube 2 Q.half);
          ]
        in
        let fps = List.map Relation.fingerprint shapes in
        let sorted = List.sort_uniq String.compare fps in
        Alcotest.(check int) "all distinct" (List.length shapes) (List.length sorted));
    t "identical shapes from different constructors share a key" (fun () ->
        (* The standard 2-simplex IS the hand-built triangle. *)
        check_fp_eq "simplex = triangle" (Relation.standard_simplex 2) triangle);
  ]

let oracle_tests =
  [
    t "unit d-simplex has volume 1/d!" (fun () ->
        let fact = [| 1; 1; 2; 6; 24 |] in
        for d = 1 to 4 do
          match A.exact_truth (Relation.standard_simplex d) with
          | Some v ->
              Alcotest.(check bool)
                (Printf.sprintf "d=%d" d)
                true
                (Q.equal v (qq 1 fact.(d)))
          | None -> Alcotest.failf "no exact volume for simplex d=%d" d
        done);
    t "boxes multiply" (fun () ->
        match A.exact_truth (Relation.box [| q 0; q (-1) |] [| q 2; q 3 |]) with
        | Some v -> Alcotest.(check bool) "2*4" true (Q.equal v (q 8))
        | None -> Alcotest.fail "no exact volume for a box");
    t "inclusion-exclusion on overlapping boxes" (fun () ->
        let a = Relation.box [| q 0; q 0 |] [| q 2; q 2 |] in
        let b = Relation.box [| q 1; q 1 |] [| q 3; q 3 |] in
        match A.exact_truth (Relation.union a b) with
        | Some v -> Alcotest.(check bool) "4+4-1" true (Q.equal v (q 7))
        | None -> Alcotest.fail "no exact volume for the union");
    t "unbounded and oversized relations have no closed form" (fun () ->
        let half = Relation.halfspace ~dim:2 (Term.sub (Term.var 0) (Term.const Q.one)) in
        Alcotest.(check bool) "unbounded" true (A.exact_truth half = None);
        let cube = Relation.unit_cube 1 in
        let many =
          List.fold_left
            (fun acc _ -> Relation.union acc cube)
            cube
            (List.init 16 Fun.id)
        in
        Alcotest.(check bool) "tuple blowup guard" true
          (A.exact_truth ~max_tuples:16 many = None));
    ts "exact value cross-validates against a sampled estimate" (fun () ->
        let eps = 0.2 and delta = 0.1 in
        let truth = Q.to_float (Option.get (A.exact_truth triangle)) in
        let rng = Rng.create 42 in
        match
          Scdb_gis.Plan_exec.observable_of_relation ~gamma:0.05 ~eps ~delta
            ~task:Scdb_plan.Plan.Volume rng triangle
        with
        | None -> Alcotest.fail "triangle should be estimable"
        | Some (_, obs) ->
            let est = Scdb_core.Observable.volume obs rng ~eps ~delta in
            Alcotest.(check bool)
              (Printf.sprintf "|%g - %g| <= eps*truth" est truth)
              true
              (Float.abs (est -. truth) <= eps *. truth));
  ]

(* A deterministic pseudo-estimator: the value depends only on the
   seed, like the real pipeline, but costs one rng draw. *)
let toy_estimate s =
  let rng = Rng.create s in
  Some (1.0 +. (0.05 *. (Rng.float rng -. 0.5)))

let verify_tests =
  [
    t "perfect estimator passes at 40 runs" (fun () ->
        let cov =
          A.verify ~eps:0.1 ~delta:0.1 ~runs:40 ~seed:1 ~truth:1.0 (fun _ -> Some 1.0)
        in
        Alcotest.(check int) "hits" 40 cov.A.hits;
        Alcotest.(check bool) "verdict" true (cov.A.verdict = A.Pass));
    t "declared estimation failures count as misses" (fun () ->
        let cov =
          A.verify ~eps:0.1 ~delta:0.1 ~runs:12 ~seed:1 ~truth:1.0 (fun _ -> None)
        in
        Alcotest.(check int) "hits" 0 cov.A.hits;
        Alcotest.(check bool) "verdict" true (cov.A.verdict = A.Fail);
        Alcotest.(check bool) "estimates stay nan" true
          (Array.for_all Float.is_nan cov.A.estimates));
    t "too few replicates is inconclusive, not a pass" (fun () ->
        let cov =
          A.verify ~eps:0.1 ~delta:0.1 ~runs:8 ~seed:1 ~truth:1.0 (fun _ -> Some 1.0)
        in
        Alcotest.(check bool) "verdict" true (cov.A.verdict = A.Inconclusive));
    t "corrupted Chernoff budget fails the contract" (fun () ->
        (* The contract estimator for p = 0.5 at (ε=0.05, δ=0.1) needs
           ~2.4k Chernoff samples; starving it to 120 (a twentieth)
           leaves per-replicate coverage near 40%, which the bracket
           rejects decisively.  The honest budget on the same seeds
           must not fail. *)
        let coin ~samples s =
          let rng = Rng.create s in
          Some (Ch.estimate_fraction rng ~samples (fun rng -> Rng.float rng < 0.5))
        in
        let starved =
          A.verify ~eps:0.05 ~delta:0.1 ~runs:25 ~seed:7 ~truth:0.5 (coin ~samples:120)
        in
        Alcotest.(check bool)
          (Printf.sprintf "starved coverage %.2f fails" starved.A.coverage)
          true
          (starved.A.verdict = A.Fail);
        let funded =
          A.verify ~eps:0.05 ~delta:0.1 ~runs:25 ~seed:7 ~truth:0.5 (coin ~samples:2400)
        in
        Alcotest.(check bool)
          (Printf.sprintf "funded coverage %.2f does not fail" funded.A.coverage)
          true
          (funded.A.verdict <> A.Fail));
    t "domains and seq replicates agree bit for bit" (fun () ->
        (* --jobs 3 deals the replicates to three domains, --jobs 1
           runs them in order on the calling one. *)
        let run jobs = A.verify ~jobs ~eps:0.1 ~delta:0.1 ~runs:10 ~seed:11 ~truth:1.0 toy_estimate in
        let d = run 3 and s = run 1 in
        Alcotest.(check (array (float 0.0))) "estimates" s.A.estimates d.A.estimates;
        Alcotest.(check int) "hits" s.A.hits d.A.hits;
        Alcotest.(check bool) "verdict" true (s.A.verdict = d.A.verdict));
    t "jobs fan-out merges telemetry into the shared counters" (fun () ->
        (* Two domains bump the process-wide counters at once; more
           jobs than replicates start only as many domains as there
           are replicates. *)
        let was = Tel.enabled () in
        Tel.set_enabled true;
        Fun.protect ~finally:(fun () -> Tel.set_enabled was) @@ fun () ->
        List.iter
          (fun jobs ->
            Tel.reset ();
            ignore (A.verify ~jobs ~eps:0.1 ~delta:0.1 ~runs:6 ~seed:3 ~truth:1.0 toy_estimate);
            let v name = Option.value ~default:0 (Tel.counter_value name) in
            Alcotest.(check int) (Printf.sprintf "replicates, jobs %d" jobs) 6
              (v "audit.replicates");
            Alcotest.(check int) (Printf.sprintf "hits+misses, jobs %d" jobs) 6
              (v "audit.hits" + v "audit.misses"))
          [ 2; 100 ]);
    t "rejects invalid arguments" (fun () ->
        List.iter
          (fun f ->
            try
              ignore (f ());
              Alcotest.fail "expected Invalid_argument"
            with Invalid_argument _ -> ())
          [
            (fun () -> A.verify ~eps:0.1 ~delta:0.1 ~runs:0 ~seed:1 ~truth:1.0 toy_estimate);
            (fun () ->
              A.verify ~jobs:0 ~eps:0.1 ~delta:0.1 ~runs:4 ~seed:1 ~truth:1.0 toy_estimate);
            (fun () ->
              A.verify ~jobs:(A.max_jobs + 1) ~eps:0.1 ~delta:0.1 ~runs:4 ~seed:1 ~truth:1.0
                toy_estimate);
            (fun () -> A.verify ~eps:1.5 ~delta:0.1 ~runs:4 ~seed:1 ~truth:1.0 toy_estimate);
            (fun () -> A.verify ~eps:0.1 ~delta:0.1 ~runs:4 ~seed:1 ~truth:0.0 toy_estimate);
          ]);
  ]

let union_fig1 =
  Relation.union triangle (Relation.box [| q 2; q 0 |] [| q 3; q 1 |])

let run_tests =
  [
    ts "audits the Figure 1 triangle against the exact oracle" (fun () ->
        match A.run ~eps:0.2 ~delta:0.1 ~runs:3 ~seed:42 triangle with
        | Error e -> Alcotest.failf "audit failed: %s" e
        | Ok a ->
            Alcotest.(check bool) "oracle" true (a.A.oracle = A.Exact);
            Alcotest.(check (float 1e-12)) "truth" 0.5 a.A.truth;
            Alcotest.(check string) "fingerprint" (Relation.fingerprint triangle)
              a.A.fingerprint;
            Alcotest.(check int) "all replicates hit" 3 a.A.cov.A.hits;
            Alcotest.(check bool) "budget rows" true (Array.length a.A.ledger > 0);
            Array.iter
              (fun (r : Plan_exec.row) ->
                Alcotest.(check bool) "eps grant finite" true (Float.is_finite r.Plan_exec.eps);
                Alcotest.(check bool) "delta grant in (0,1)" true
                  (r.Plan_exec.delta > 0.0 && r.Plan_exec.delta < 1.0))
              a.A.ledger);
    ts "audit documents are deterministic" (fun () ->
        let doc () =
          match A.run ~jobs:2 ~eps:0.2 ~delta:0.1 ~runs:2 ~seed:9 triangle with
          | Error e -> Alcotest.failf "audit failed: %s" e
          | Ok a ->
              A.to_json ~vars:[ "x"; "y" ] ~formula:"triangle" ~seed:9 ~jobs:2
                ~requested:"auto" a
        in
        Alcotest.(check string) "byte-identical" (doc ()) (doc ()));
    ts "corrupting the estimator budget fails the audited contract" (fun () ->
        (* A twentieth of the practical per-phase budget: same plan,
           same oracle, but the estimator can no longer honor the
           (ε,δ) it advertises — the auditor must notice.  40
           replicates, as the vm-opt audits use: at 12, coverage near
           0.7 reads INCONCLUSIVE as often as FAIL, so the verdict rode
           on the seed. *)
        match A.run ~phase_samples:5 ~eps:0.2 ~delta:0.1 ~runs:40 ~seed:42 union_fig1 with
        | Error e -> Alcotest.failf "audit failed to run: %s" e
        | Ok a ->
            Alcotest.(check bool)
              (Printf.sprintf "coverage %.2f fails" a.A.cov.A.coverage)
              true
              (a.A.cov.A.verdict = A.Fail));
    t "strict exact oracle refuses shapes with no closed form" (fun () ->
        let half = Relation.halfspace ~dim:2 (Term.sub (Term.var 0) (Term.const Q.one)) in
        match A.run ~oracle:`Exact ~eps:0.2 ~delta:0.1 ~runs:2 ~seed:1 half with
        | Error e -> Alcotest.(check bool) "mentions reference" true
            (String.length e > 0)
        | Ok _ -> Alcotest.fail "expected an error");
    t "refused replicates are named in the text summary" (fun () ->
        (* A slab 10^12 times thinner than wide: every replicate's
           estimator refuses it, so every one is a miss. *)
        let slab =
          Parser.parse_relation ~vars:[ "x"; "y" ] "x >= 0 /\\ y >= 0 /\\ x + 1000000000000*y <= 1"
        in
        let lines a = String.split_on_char '\n' (A.to_text a) in
        let refused = "audit: 40/40 replicates refused by the estimator (counted as misses)" in
        (match A.run ~eps:0.2 ~delta:0.1 ~runs:40 ~seed:42 slab with
        | Error e -> Alcotest.failf "audit failed to run: %s" e
        | Ok a ->
            Alcotest.(check bool) "verdict" true (a.A.cov.A.verdict = A.Fail);
            Alcotest.(check bool) refused true (List.mem refused (lines a)));
        match A.run ~eps:0.2 ~delta:0.1 ~runs:2 ~seed:42 triangle with
        | Error e -> Alcotest.failf "audit failed to run: %s" e
        | Ok a ->
            Alcotest.(check bool) "no refusal line" false
              (List.exists (String.ends_with ~suffix:"(counted as misses)") (lines a)));
    t "zero-volume relations are rejected" (fun () ->
        let line =
          Relation.make ~dim:2 [ [ Atom.eq (Term.var 0) Term.zero ] ]
        in
        match A.run ~eps:0.2 ~delta:0.1 ~runs:2 ~seed:1 line with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "expected an error");
  ]

(* vm-opt's volumes: a fresh rewritten tree per replicate, whose leaf
   weights are exact. *)
module Plan = Scdb_plan.Plan
module Progress = Scdb_progress.Progress

let gamma = Scdb_gis.Flight.gamma

(* The interpreter tree of the rewritten plan. *)
let observe_opt rng relation =
  match
    Plan_exec.prepare ~config:Scdb_core.Convex_obs.practical_config ~gamma ~eps:0.2 ~delta:0.1
      ~task:(Plan.Sample 4) rng relation
  with
  | Some p ->
      let p = Plan_exec.optimize p in
      (p.Plan_exec.plan, Plan_exec.observe p)
  | None -> Alcotest.fail "relation should be preparable"

let vm_opt_audit relation =
  let truth = Q.to_float (Option.get (A.exact_truth relation)) in
  let estimate seed =
    let rng = Rng.create seed in
    let _, obs = observe_opt rng relation in
    Some (Scdb_core.Observable.volume obs ~gamma rng ~eps:0.2 ~delta:0.1)
  in
  let cov = A.verify ~eps:0.2 ~delta:0.1 ~runs:40 ~seed:42 ~truth estimate in
  Alcotest.(check string)
    (Printf.sprintf "%d/%d hits" cov.A.hits cov.A.runs)
    "pass" (A.verdict_name cov.A.verdict)

let three_boxes =
  let box x0 y0 x1 y1 = Relation.box [| qq x0 2; qq y0 2 |] [| qq x1 2; qq y1 2 |] in
  List.fold_left Relation.union (box 0 0 4 2) [ box 2 0 6 2; box 1 1 5 3 ]

let vm_opt_tests =
  [
    ts "vm-opt volumes pass on the Figure 1 union" (fun () -> vm_opt_audit union_fig1);
    ts "vm-opt volumes pass on three overlapping boxes" (fun () -> vm_opt_audit three_boxes);
    t "exact-weight leaves keep their whole grant as slack" (fun () ->
        let rng = Rng.create 42 in
        let plan, obs = observe_opt rng union_fig1 in
        Plan_exec.arm plan;
        Fun.protect ~finally:Progress.stop (fun () ->
            ignore
              (Scdb_core.Observable.sample_many obs rng
                 (Scdb_core.Params.make ~gamma ~eps:0.2 ~delta:0.1 ())
                 ~n:4);
            ignore (Scdb_core.Observable.volume obs ~gamma rng ~eps:0.2 ~delta:0.1));
        let rows = Plan_exec.ledger plan in
        let leaves =
          List.filter (fun (r : Plan_exec.row) -> r.Plan_exec.op = "dfk") (Array.to_list rows)
        in
        Alcotest.(check int) "two leaves" 2 (List.length leaves);
        List.iter
          (fun (r : Plan_exec.row) ->
            Alcotest.(check (float 0.0)) "achieved delta" 0.0 (Plan_exec.delta_achieved r);
            Alcotest.(check (float 0.0)) "slack is the grant" r.Plan_exec.delta (Plan_exec.slack r))
          leaves);
  ]

let suites =
  [
    ("audit.fingerprint", fingerprint_tests);
    ("audit.oracles", oracle_tests);
    ("audit.verify", verify_tests);
    ("audit.run", run_tests);
    ("audit.vm_opt", vm_opt_tests);
  ]
