(* Tests for grids, walks, hit-and-run, rejection, Chernoff helpers,
   rounding and the multi-phase volume estimator. *)

module P = Scdb_polytope.Polytope
module G = Scdb_sampling.Grid
module W = Scdb_sampling.Walk
module HR = Scdb_sampling.Hit_and_run
module Rej = Scdb_sampling.Rejection
module Ch = Scdb_sampling.Chernoff
module Ro = Scdb_sampling.Rounding
module Vol = Scdb_sampling.Volume
module Rng = Scdb_rng.Rng

let t name f = Alcotest.test_case name `Quick f
let ts name f = Alcotest.test_case name `Slow f

let grid_tests =
  [
    t "point round trips" (fun () ->
        let g = G.make ~step:0.25 ~dim:2 in
        let idx = G.of_point g [| 0.6; -0.3 |] in
        Alcotest.(check bool) "rounded" true
          (Vec.equal_eps 1e-12 [| 0.5; -0.25 |] (G.to_point g idx)));
    t "step_for respects the schedule" (fun () ->
        let g = G.step_for ~gamma:0.1 ~dim:4 ~scale:2.0 in
        Alcotest.(check (float 1e-12)) "p = γ·scale/d^1.5" (0.1 *. 2.0 /. 8.0) g.G.step);
    t "neighbours are 2d at distance p" (fun () ->
        let g = G.make ~step:0.5 ~dim:3 in
        let ns = G.neighbours g [| 0; 0; 0 |] in
        Alcotest.(check int) "count" 6 (List.length ns);
        List.iter
          (fun n ->
            Alcotest.(check (float 1e-12)) "distance" 0.5
              (Vec.dist (G.to_point g n) (G.to_point g [| 0; 0; 0 |])))
          ns);
    t "count_in_ball matches area asymptotics" (fun () ->
        let g = G.make ~step:0.05 ~dim:2 in
        let count = G.count_in_ball g 1.0 in
        let approx = float_of_int count *. G.cell_volume g in
        Alcotest.(check bool) "close to pi" true (Float.abs (approx -. Float.pi) < 0.1));
    t "invalid step" (fun () ->
        try
          ignore (G.make ~step:0.0 ~dim:1);
          Alcotest.fail "expected Invalid_argument"
        with Invalid_argument _ -> ());
  ]

let walk_tests =
  [
    t "walk stays inside" (fun () ->
        let rng = Rng.create 1 in
        let g = G.make ~step:0.1 ~dim:2 in
        let mem x = P.mem (P.unit_cube 2) x in
        let final = W.sample rng ~grid:g ~mem ~start:[| 0.5; 0.5 |] ~steps:500 in
        Alcotest.(check bool) "inside" true (mem final));
    t "start outside rejected" (fun () ->
        let rng = Rng.create 2 in
        let g = G.make ~step:0.1 ~dim:2 in
        try
          ignore (W.walk rng ~grid:g ~mem:(fun _ -> false) ~start:[| 0; 0 |] ~steps:1);
          Alcotest.fail "expected Invalid_argument"
        with Invalid_argument _ -> ());
    ts "stationary distribution is uniform (chi-square on 1D segment)" (fun () ->
        (* Walk on {0,...,9} (grid step 1 on [0, 9.5]): uniform stationary. *)
        let rng = Rng.create 3 in
        let g = G.make ~step:1.0 ~dim:1 in
        let mem x = x.(0) >= -0.5 && x.(0) <= 9.5 in
        let counts = Array.make 10 0 in
        let n = 6000 in
        for _ = 1 to n do
          let p = W.sample rng ~grid:g ~mem ~start:[| 0.0 |] ~steps:300 in
          let k = int_of_float (Float.round p.(0)) in
          counts.(k) <- counts.(k) + 1
        done;
        let e = float_of_int n /. 10.0 in
        let chi2 = Array.fold_left (fun acc c -> acc +. (((float_of_int c -. e) ** 2.) /. e)) 0.0 counts in
        (* 9 dof, 0.1% critical value 27.9 *)
        Alcotest.(check bool) (Printf.sprintf "chi2=%.1f" chi2) true (chi2 < 27.9));
    t "trajectory has steps+1 entries" (fun () ->
        let rng = Rng.create 4 in
        let g = G.make ~step:0.5 ~dim:1 in
        let tr = W.trajectory rng ~grid:g ~mem:(fun x -> Float.abs x.(0) <= 2.0) ~start:[| 0 |] ~steps:20 in
        Alcotest.(check int) "length" 21 (List.length tr));
  ]

let hit_and_run_tests =
  [
    t "ball chord endpoints" (fun () ->
        match HR.ball_chord ~centre:[| 0.; 0. |] ~radius:2.0 [| 0.; 0. |] [| 1.; 0. |] with
        | Some (lo, hi) ->
            Alcotest.(check (float 1e-9)) "lo" (-2.0) lo;
            Alcotest.(check (float 1e-9)) "hi" 2.0 hi
        | None -> Alcotest.fail "expected chord");
    t "ball chord misses" (fun () ->
        Alcotest.(check bool) "none" true
          (Option.is_none (HR.ball_chord ~centre:[| 0.; 0. |] ~radius:1.0 [| 3.; 0. |] [| 0.; 1. |])));
    t "intersect chords" (fun () ->
        let c1 = HR.polytope_chord (P.cube 2 1.0) in
        let c2 = HR.ball_chord ~centre:[| 0.; 0. |] ~radius:0.5 in
        match HR.intersect_chords [ c1; c2 ] [| 0.; 0. |] [| 1.; 0. |] with
        | Some (lo, hi) ->
            Alcotest.(check (float 1e-9)) "lo" (-0.5) lo;
            Alcotest.(check (float 1e-9)) "hi" 0.5 hi
        | None -> Alcotest.fail "expected chord");
    ts "mean of samples near centroid" (fun () ->
        let rng = Rng.create 5 in
        let tri = P.simplex 2 in
        let start = ref [| 0.25; 0.25 |] in
        let n = 4000 in
        let sum = Vec.create 2 in
        for _ = 1 to n do
          let p = HR.sample_polytope rng tri ~start:!start ~steps:25 in
          Alcotest.(check bool) "inside" true (P.mem ~slack:1e-9 tri p);
          start := p;
          sum.(0) <- sum.(0) +. p.(0);
          sum.(1) <- sum.(1) +. p.(1)
        done;
        (* centroid of the standard triangle is (1/3, 1/3) *)
        Alcotest.(check (float 0.02)) "mean x" (1.0 /. 3.0) (sum.(0) /. float_of_int n);
        Alcotest.(check (float 0.02)) "mean y" (1.0 /. 3.0) (sum.(1) /. float_of_int n));
  ]

let rejection_tests =
  [
    t "acceptance rate near area ratio" (fun () ->
        let rng = Rng.create 6 in
        let mem x = Vec.norm x <= 1.0 in
        let _, stats =
          Rej.sample_many rng ~lo:[| -1.; -1. |] ~hi:[| 1.; 1. |] ~mem ~count:100_000 ~max_attempts:20_000
        in
        (* pi/4 ≈ 0.785 *)
        Alcotest.(check (float 0.02)) "rate" (Float.pi /. 4.0) (Rej.acceptance_rate stats));
    t "budget exhaustion returns none" (fun () ->
        let rng = Rng.create 7 in
        Alcotest.(check bool) "none" true
          (Option.is_none
             (Rej.sample rng ~lo:[| 0. |] ~hi:[| 1. |] ~mem:(fun _ -> false) ~max_attempts:100)));
  ]

let chernoff_tests =
  [
    t "sample sizes are monotone" (fun () ->
        let n1 = Ch.samples_for_ratio ~eps:0.1 ~delta:0.1 ~p_lower:0.5 in
        let n2 = Ch.samples_for_ratio ~eps:0.05 ~delta:0.1 ~p_lower:0.5 in
        let n3 = Ch.samples_for_ratio ~eps:0.1 ~delta:0.01 ~p_lower:0.5 in
        Alcotest.(check bool) "smaller eps needs more" true (n2 > n1);
        Alcotest.(check bool) "smaller delta needs more" true (n3 > n1));
    t "estimate_fraction concentrates" (fun () ->
        let rng = Rng.create 8 in
        let p = Ch.estimate_fraction rng ~samples:20_000 (fun r -> Rng.float r < 0.3) in
        Alcotest.(check (float 0.02)) "p" 0.3 p);
    t "median_of_means robust to heavy tail" (fun () ->
        let rng = Rng.create 9 in
        (* mean 1 mixture with rare huge outcomes *)
        let draw r = if Rng.float r < 0.001 then 200.0 else 0.8 +. (0.4 *. Rng.float r) in
        let m = Ch.median_of_means rng ~blocks:9 ~block_size:200 draw in
        Alcotest.(check bool) "near 1" true (Float.abs (m -. 1.0) < 0.3));
    t "invalid parameters rejected" (fun () ->
        List.iter
          (fun f -> try ignore (f ()); Alcotest.fail "expected Invalid_argument" with Invalid_argument _ -> ())
          [
            (fun () -> Ch.samples_for_additive ~eps:0.0 ~delta:0.1);
            (fun () -> Ch.samples_for_ratio ~eps:0.1 ~delta:0.1 ~p_lower:0.0);
            (fun () -> Ch.repeats_for_confidence ~delta:1.5);
          ]);
    t "adaptive estimate concentrates" (fun () ->
        let rng = Rng.create 12 in
        let p =
          Ch.estimate_fraction_adaptive rng ~eps:0.1 ~delta:0.1 ~p_floor:0.01 (fun r ->
              Rng.float r < 0.3)
        in
        Alcotest.(check bool) "near 0.3" true (Float.abs (p -. 0.3) < 0.05));
    t "adaptive estimate folds the pilot draws in" (fun () ->
        (* Regression: the 400 pilot draws used to be discarded.  A
           predicate that succeeds only during the pilot must still
           produce a positive estimate, because those hits are real
           draws of the same Bernoulli stream. *)
        let calls = ref 0 in
        let f _ = incr calls; !calls <= 400 in
        let p = Ch.estimate_fraction_adaptive (Rng.create 0) ~eps:0.2 ~delta:0.2 ~p_floor:0.01 f in
        Alcotest.(check bool)
          (Printf.sprintf "pilot hits kept (got %g)" p)
          true (p > 0.0);
        (* The main phase budget is also net of the pilot: with p_hat = 1
           the bound asks for few hundred draws total, not pilot + bound. *)
        let total = !calls in
        let bound =
          400 + Stdlib.max 0 (Ch.samples_for_ratio ~eps:0.2 ~delta:0.1 ~p_lower:0.5 - 400)
        in
        Alcotest.(check int) "pilot counts toward the budget" bound total);
    t "adaptive estimator honours a sub-pilot draw cap" (fun () ->
        (* Regression: with max_samples below the 400-draw pilot, the
           unclamped pilot alone used to overspend the cap. *)
        let calls = ref 0 in
        let f r = incr calls; Rng.float r < 0.5 in
        let p =
          Ch.estimate_fraction_adaptive (Rng.create 3) ~eps:0.1 ~delta:0.1 ~p_floor:0.01
            ~max_samples:100 f
        in
        Alcotest.(check bool)
          (Printf.sprintf "spent %d of a 100-draw budget" !calls)
          true (!calls <= 100);
        Alcotest.(check bool) "estimate is sane" true (Float.abs (p -. 0.5) < 0.25));
    t "zero-hit pilot cannot overspend the cap either" (fun () ->
        let calls = ref 0 in
        let f _ = incr calls; false in
        let p =
          Ch.estimate_fraction_adaptive (Rng.create 4) ~eps:0.1 ~delta:0.1 ~p_floor:1e-6
            ~max_samples:500 f
        in
        (* pilot (400) + floor-based main phase, truncated to the cap *)
        Alcotest.(check int) "draws = max_samples" 500 !calls;
        Alcotest.(check (float 0.0)) "no hits means zero" 0.0 p);
  ]

let rounding_tests =
  [
    t "rounding centres and normalizes inscribed ball" (fun () ->
        let rng = Rng.create 10 in
        let elongated = P.box [| 0.; 0. |] [| 50.; 0.5 |] in
        match Ro.round rng elongated with
        | Some r ->
            Alcotest.(check bool) "r_inf ≈ 1" true (Float.abs (r.Ro.r_inf -. 1.0) < 0.05);
            Alcotest.(check bool) "aspect much improved" true (Ro.aspect_ratio r < 10.0)
        | None -> Alcotest.fail "expected rounding");
    t "empty body" (fun () ->
        let empty = P.make ~dim:1 [| [| 1. |]; [| -1. |] |] [| -1.; -1. |] in
        Alcotest.(check bool) "none" true (Option.is_none (Ro.round (Rng.create 0) empty)));
    t "unbounded body" (fun () ->
        let hs = P.make ~dim:2 [| [| 1.; 0. |] |] [| 1. |] in
        Alcotest.(check bool) "none" true (Option.is_none (Ro.round (Rng.create 0) hs)));
    t "volume scale consistency" (fun () ->
        let rng = Rng.create 11 in
        let b = P.box [| 0.; 0. |] [| 4.; 1. |] in
        match Ro.round rng b with
        | Some r ->
            (* vol(rounded) = vol(b) * scale; check via exact rounded-volume
               of the box being preserved through the affine identity *)
            let scale = Affine.volume_scale r.Ro.transform in
            Alcotest.(check bool) "scale positive" true (scale > 0.0)
        | None -> Alcotest.fail "expected rounding");
  ]

let volume_tests =
  [
    t "ball volume closed forms" (fun () ->
        Alcotest.(check (float 1e-12)) "V1" 2.0 (Vol.ball_volume ~dim:1 ~radius:1.0);
        Alcotest.(check (float 1e-12)) "V2" Float.pi (Vol.ball_volume ~dim:2 ~radius:1.0);
        Alcotest.(check (float 1e-12)) "V3" (4.0 *. Float.pi /. 3.0) (Vol.ball_volume ~dim:3 ~radius:1.0);
        Alcotest.(check (float 1e-12)) "scaling" (Float.pi *. 4.0) (Vol.ball_volume ~dim:2 ~radius:2.0));
    ts "estimates known volumes within 10%" (fun () ->
        let rng = Rng.create 12 in
        List.iter
          (fun (name, poly, truth) ->
            match Vol.estimate rng ~budget:(Vol.Practical 2500) poly with
            | Some r ->
                let rel = Float.abs (r.Vol.volume -. truth) /. truth in
                Alcotest.(check bool) (Printf.sprintf "%s rel=%.3f" name rel) true (rel < 0.10)
            | None -> Alcotest.fail (name ^ ": estimation failed"))
          [
            ("cube2", P.unit_cube 2, 1.0);
            ("cube4", P.unit_cube 4, 1.0);
            ("simplex3", P.simplex 3, 1.0 /. 6.0);
            ("elongated", P.box [| 0.; 0. |] [| 100.; 0.01 |], 1.0);
          ]);
    ts "grid-walk sampler variant also works" (fun () ->
        let rng = Rng.create 13 in
        match Vol.estimate rng ~sampler:Vol.Grid_walk ~budget:(Vol.Practical 1200) ~walk_steps:400 (P.unit_cube 2) with
        | Some r -> Alcotest.(check bool) "close" true (Float.abs (r.Vol.volume -. 1.0) < 0.2)
        | None -> Alcotest.fail "estimation failed");
    ts "differential: DFK estimate vs exact Lasserre on random 2D/3D polytopes" (fun () ->
        let module VE = Scdb_polytope.Volume_exact in
        let rng = Rng.create 77 in
        let q = Rational.of_int in
        let checked = ref 0 in
        while !checked < 6 do
          let d = 2 + Rng.int rng 2 in
          (* random bounded tuple: cube ∩ random halfplanes *)
          let atoms = ref (List.concat (Relation.tuples (Relation.cube d (q 2)))) in
          for _ = 1 to d + 2 do
            let te =
              Term.make
                (List.init d (fun i -> (i, q (Rng.int rng 7 - 3))))
                (q (-1 - Rng.int rng 3))
            in
            atoms := Atom.make te Atom.Le :: !atoms
          done;
          let rel = Relation.make ~dim:d [ !atoms ] in
          let truth = Rational.to_float (VE.volume_relation rel) in
          if truth > 0.5 then begin
            incr checked;
            let poly = Scdb_polytope.Polytope.of_tuple ~dim:d (List.hd (Relation.tuples rel)) in
            match Vol.estimate rng ~budget:(Vol.Practical 2500) poly with
            | Some r ->
                let rel_err = Float.abs (r.Vol.volume -. truth) /. truth in
                Alcotest.(check bool)
                  (Printf.sprintf "d=%d truth=%.3f est=%.3f" d truth r.Vol.volume)
                  true (rel_err < 0.15)
            | None -> Alcotest.fail "estimation failed on non-empty body"
          end
        done);
    t "empty polytope gives none" (fun () ->
        let empty = P.make ~dim:2 [| [| 1.; 0. |]; [| -1.; 0. |] |] [| -1.; -1. |] in
        Alcotest.(check bool) "none" true (Option.is_none (Vol.estimate (Rng.create 0) empty)));
    t "dimension zero" (fun () ->
        match Vol.estimate (Rng.create 0) (P.make ~dim:0 [||] [||]) with
        | Some r -> Alcotest.(check (float 0.0)) "unit" 1.0 r.Vol.volume
        | None -> Alcotest.fail "expected trivial estimate");
  ]

let oracle_body_tests =
  let module OB = Scdb_sampling.Oracle_body in
  [
    t "ellipsoid construction and membership" (fun () ->
        match OB.ellipsoid [| [| 1.0; 0.0 |]; [| 0.0; 4.0 |] |] with
        | None -> Alcotest.fail "expected body"
        | Some body ->
            Alcotest.(check bool) "inside" true (body.OB.mem [| 0.9; 0.0 |]);
            Alcotest.(check bool) "outside" false (body.OB.mem [| 0.0; 0.9 |]);
            Alcotest.(check bool) "inner <= outer" true (snd body.OB.inner <= body.OB.outer));
    t "non-PD matrix rejected" (fun () ->
        Alcotest.(check bool) "none" true
          (Option.is_none (OB.ellipsoid [| [| 1.0; 2.0 |]; [| 2.0; 1.0 |] |])));
    t "oracle chord matches analytic ball chord" (fun () ->
        match OB.ellipsoid (Mat.identity 2) with
        | None -> Alcotest.fail "expected body"
        | Some body -> (
            match OB.chord body [| 0.0; 0.0 |] [| 1.0; 0.0 |] with
            | Some (lo, hi) ->
                Alcotest.(check (float 1e-4)) "lo" (-1.0) lo;
                Alcotest.(check (float 1e-4)) "hi" 1.0 hi
            | None -> Alcotest.fail "expected chord"));
    ts "samples stay inside the ellipsoid" (fun () ->
        let rng = Rng.create 21 in
        let body = Option.get (OB.ellipsoid [| [| 1.0; 0.5 |]; [| 0.5; 2.0 |] |]) in
        let start = ref (Vec.create 2) in
        for _ = 1 to 300 do
          let p = OB.sample rng body ~start:!start ~steps:20 in
          start := p;
          Alcotest.(check bool) "member" true (body.OB.mem p)
        done);
    ts "ellipsoid volume matches closed form (sec 5 extension)" (fun () ->
        let rng = Rng.create 22 in
        (* vol{xᵀAx<=1} = V_ball(d) / sqrt(det A) *)
        let a = [| [| 1.0; 0.0 |]; [| 0.0; 4.0 |] |] in
        let truth = Vol.ball_volume ~dim:2 ~radius:1.0 /. 2.0 in
        let body = Option.get (OB.ellipsoid a) in
        let est = OB.estimate_volume rng ~samples_per_phase:2000 body in
        Alcotest.(check bool)
          (Printf.sprintf "est=%.4f truth=%.4f" est truth)
          true
          (Float.abs (est -. truth) /. truth < 0.12));
  ]


let ball_walk_tests =
  let module BW = Scdb_sampling.Ball_walk in
  [
    t "ball walk stays inside" (fun () ->
        let rng = Rng.create 30 in
        let c = P.unit_cube 3 in
        let p = BW.sample_polytope rng c ~start:[| 0.5; 0.5; 0.5 |] ~steps:200 () in
        Alcotest.(check bool) "inside" true (P.mem c p));
    t "start outside rejected" (fun () ->
        let rng = Rng.create 31 in
        try
          ignore (BW.walk rng ~mem:(fun _ -> false) ~start:[| 0.0 |] ~steps:1 ~radius:0.1);
          Alcotest.fail "expected Invalid_argument"
        with Invalid_argument _ -> ());
    t "acceptance rate reported" (fun () ->
        let rng = Rng.create 32 in
        let c = P.unit_cube 2 in
        let _, stats = BW.walk rng ~mem:(fun x -> P.mem c x) ~start:[| 0.5; 0.5 |] ~steps:500 ~radius:0.2 in
        Alcotest.(check int) "steps" 500 stats.BW.steps;
        Alcotest.(check bool) "some accepted" true (stats.BW.accepted > 250));
    ts "ball walk empirical mean near centre" (fun () ->
        let rng = Rng.create 33 in
        let c = P.unit_cube 2 in
        let start = ref [| 0.1; 0.1 |] in
        let sum = ref 0.0 in
        let n = 2000 in
        for _ = 1 to n do
          let p = BW.sample_polytope rng c ~start:!start ~steps:80 () in
          start := p;
          sum := !sum +. p.(0)
        done;
        Alcotest.(check (float 0.04)) "mean" 0.5 (!sum /. float_of_int n));
  ]

let stats_tests =
  let module S = Scdb_sampling.Stats in
  [
    t "welford mean and variance" (fun () ->
        let acc = S.create () in
        List.iter (S.add acc) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
        Alcotest.(check (float 1e-9)) "mean" 5.0 (S.mean acc);
        Alcotest.(check (float 1e-9)) "variance" (32.0 /. 7.0) (S.variance acc);
        Alcotest.(check int) "count" 8 (S.count acc));
    t "empty accumulator raises" (fun () ->
        try
          ignore (S.mean (S.create ()));
          Alcotest.fail "expected Invalid_argument"
        with Invalid_argument _ -> ());
    t "confidence interval contains the mean and shrinks" (fun () ->
        let rng = Rng.create 34 in
        let small = S.create () and large = S.create () in
        for i = 1 to 10_000 do
          let x = Rng.float rng in
          if i <= 100 then S.add small x;
          S.add large x
        done;
        let lo1, hi1 = S.confidence_interval small ~confidence:0.95 in
        let lo2, hi2 = S.confidence_interval large ~confidence:0.95 in
        Alcotest.(check bool) "contains" true (lo2 <= 0.5 && 0.5 <= hi2);
        Alcotest.(check bool) "shrinks" true (hi2 -. lo2 < hi1 -. lo1));
    t "hoeffding radius formula" (fun () ->
        let r = S.hoeffding_radius ~n:200 ~range:1.0 ~delta:0.05 in
        Alcotest.(check (float 1e-9)) "value" (sqrt (log 40.0 /. 400.0)) r);
    t "quantile nearest rank" (fun () ->
        let data = [| 5.0; 1.0; 3.0; 2.0; 4.0 |] in
        Alcotest.(check (float 0.0)) "median" 3.0 (S.quantile data 0.5);
        Alcotest.(check (float 0.0)) "min" 1.0 (S.quantile data 0.0);
        Alcotest.(check (float 0.0)) "max" 5.0 (S.quantile data 1.0));
    t "merge equals sequential" (fun () ->
        let a = S.create () and b = S.create () and all = S.create () in
        List.iteri
          (fun i x ->
            S.add (if i mod 2 = 0 then a else b) x;
            S.add all x)
          [ 1.0; 5.0; 2.0; 8.0; 3.0; 1.5; 9.0 ];
        let m = S.merge a b in
        Alcotest.(check (float 1e-9)) "mean" (S.mean all) (S.mean m);
        Alcotest.(check (float 1e-9)) "variance" (S.variance all) (S.variance m));
  ]


let mixing_tests =
  let module Mix = Scdb_sampling.Mixing in
  [
    t "iid series has tau near 1" (fun () ->
        let rng = Rng.create 40 in
        let xs = Array.init 5000 (fun _ -> Rng.float rng) in
        let tau = Mix.integrated_autocorrelation_time xs in
        Alcotest.(check bool) (Printf.sprintf "tau=%.2f" tau) true (tau < 1.4));
    t "AR(1) series has tau near (1+rho)/(1-rho)" (fun () ->
        let rng = Rng.create 41 in
        let rho = 0.9 in
        let xs = Array.make 50_000 0.0 in
        for i = 1 to Array.length xs - 1 do
          xs.(i) <- (rho *. xs.(i - 1)) +. Rng.gaussian rng
        done;
        let tau = Mix.integrated_autocorrelation_time xs in
        (* theory: tau = (1+rho)/(1-rho) = 19 *)
        Alcotest.(check bool) (Printf.sprintf "tau=%.1f" tau) true (tau > 10.0 && tau < 30.0));
    t "constant series" (fun () ->
        let xs = Array.make 100 3.14 in
        Alcotest.(check (float 0.0)) "acf" 0.0 (Mix.autocorrelation xs ~lag:1);
        Alcotest.(check (float 0.0)) "tau" 1.0 (Mix.integrated_autocorrelation_time xs));
    t "ess at most n" (fun () ->
        let rng = Rng.create 42 in
        let xs = Array.init 1000 (fun _ -> Rng.float rng) in
        Alcotest.(check bool) "bounded" true (Mix.effective_sample_size xs <= 1000.0));
    t "trace records thinned values" (fun () ->
        let rng = Rng.create 43 in
        let series =
          Mix.trace rng ~steps:100 ~thin:10 ~init:[| 0.0 |]
            ~next:(fun _ x -> [| x.(0) +. 1.0 |])
            ~f:(fun x -> x.(0))
        in
        Alcotest.(check int) "length" 10 (Array.length series);
        Alcotest.(check (float 0.0)) "first" 10.0 series.(0);
        Alcotest.(check (float 0.0)) "last" 100.0 series.(9));
  ]

(* Equivalence and allocation discipline of the incremental kernels:
   the cached-product fast paths must walk the same trajectories as the
   naive oracle implementations they replace (same rng stream, same
   accept/reject decisions), and their inner loops must not allocate. *)
let kernel_tests =
  [
    t "incremental hit-and-run follows the naive trajectory" (fun () ->
        (* Same seed on both sides: the kernels consume identical rng
           streams, so positions agree up to accumulated rounding of the
           cached products. *)
        let rng0 = Rng.create 4242 in
        let poly = ref (P.cube 3 1.0) in
        for _ = 1 to 10 do
          poly := P.add_halfspace !poly (Rng.unit_vector rng0 3) 0.8
        done;
        let poly = !poly in
        let start = Vec.create 3 in
        List.iter
          (fun seed ->
            let naive =
              HR.sample (Rng.create seed) ~chord:(HR.polytope_chord poly) ~start ~steps:128
            in
            let incr = HR.sample_polytope (Rng.create seed) poly ~start ~steps:128 in
            Alcotest.(check bool)
              (Printf.sprintf "seed %d" seed)
              true
              (Vec.equal_eps 1e-6 naive incr))
          [ 42; 1000; 31337 ]);
    t "incremental lattice walk matches the oracle walk exactly" (fun () ->
        (* Dyadic grid step and ±1 cube bounds keep every product and
           cached sum exact in binary floating point, so the incremental
           kernel's accept/reject decisions — and hence the trajectory —
           are bit-identical to the membership-oracle walk. *)
        let poly = P.cube 3 1.0 in
        let grid = G.make ~step:0.25 ~dim:3 in
        let start = Vec.create 3 in
        List.iter
          (fun seed ->
            let naive =
              W.sample (Rng.create seed) ~grid ~mem:(fun x -> P.mem poly x) ~start ~steps:600
            in
            let incr = W.sample_polytope (Rng.create seed) ~grid poly ~start ~steps:600 in
            Alcotest.(check bool) (Printf.sprintf "seed %d" seed) true (naive = incr))
          [ 7; 99; 20060101 ]);
    t "chord/advance inner loop does not allocate" (fun () ->
        let rng = Rng.create 5 in
        let poly = ref (P.cube 6 1.0) in
        for _ = 1 to 20 do
          poly := P.add_halfspace !poly (Rng.unit_vector rng 6) 0.8
        done;
        let cur = P.Kernel.make !poly (Vec.create 6) in
        let dir = Rng.unit_vector rng 6 in
        let iters = 10_000 in
        (* Warm-up pass so one-time setup is off the books. *)
        for _ = 1 to 100 do
          ignore (P.Kernel.chord cur dir);
          P.Kernel.advance cur dir 1e-6
        done;
        let w0 = Gc.minor_words () in
        for _ = 1 to iters do
          ignore (P.Kernel.chord cur dir);
          P.Kernel.advance cur dir 1e-6
        done;
        let dw = Gc.minor_words () -. w0 in
        Alcotest.(check bool)
          (Printf.sprintf "minor words per step = %.4f" (dw /. float_of_int iters))
          true
          (dw < 256.0));
    t "try_set_coord inner loop does not allocate" (fun () ->
        let poly = P.cube 4 1.0 in
        let cur = P.Kernel.make poly (Vec.create 4) in
        let iters = 10_000 in
        for _ = 1 to 100 do
          ignore (P.Kernel.try_set_coord cur 0 0.25);
          ignore (P.Kernel.try_set_coord cur 0 0.0)
        done;
        let w0 = Gc.minor_words () in
        for _ = 1 to iters do
          ignore (P.Kernel.try_set_coord cur 0 0.25);
          ignore (P.Kernel.try_set_coord cur 0 0.0)
        done;
        let dw = Gc.minor_words () -. w0 in
        Alcotest.(check bool)
          (Printf.sprintf "minor words per move = %.4f" (dw /. float_of_int iters))
          true
          (dw < 256.0));
    t "hit-and-run keeps sampling uniformly (kernel path)" (fun () ->
        (* Distributional sanity on the rewritten sampler: mean of many
           short runs on the centred cube stays near the origin. *)
        let rng = Rng.create 8 in
        let poly = P.cube 2 1.0 in
        let n = 400 in
        let sx = ref 0.0 and sy = ref 0.0 in
        for _ = 1 to n do
          let p = HR.sample_polytope rng poly ~start:(Vec.create 2) ~steps:40 in
          sx := !sx +. p.(0);
          sy := !sy +. p.(1)
        done;
        Alcotest.(check (float 0.1)) "mean x" 0.0 (!sx /. float_of_int n);
        Alcotest.(check (float 0.1)) "mean y" 0.0 (!sy /. float_of_int n));
  ]

(* The volume estimator's in-place phase walk against the loop it
   replaced.  [Reference_volume] is a verbatim copy of the estimator's
   hit-and-run path as it ran on the generic closure chord
   ([HR.sample] over [intersect_chords [polytope_chord; ball_chord
   ~centre:0]], a fresh position per sample), kept here as the oracle:
   the in-place walk must make the same rng draws and return the same
   volume bits, with the same telemetry, progress and warnings. *)
module Reference_volume = struct
  module Tel = Scdb_telemetry.Telemetry

  (* Same names, hence the same registry entries, as [Volume]'s. *)
  let tel_estimates = Tel.Counter.make "volume.estimates"
  let tel_phases = Tel.Counter.make "volume.phases"
  let tel_samples = Tel.Counter.make "volume.samples"
  let tel_ratio = Tel.Histogram.make "volume.phase_ratio"

  let phase_sample rng ~poly ~radius ~walk_steps start =
    let chord =
      HR.intersect_chords
        [ HR.polytope_chord poly; HR.ball_chord ~centre:(Vec.create (P.dim poly)) ~radius ]
    in
    HR.sample rng ~chord ~start ~steps:walk_steps

  let estimate rng ~samples_per_phase poly =
    let d = P.dim poly in
    match Ro.round rng poly with
    | None -> None
    | Some rounded ->
        let body = rounded.Ro.rounded in
        let r0 = rounded.Ro.r_inf and rq = rounded.Ro.r_sup in
        let q =
          if rq <= r0 then 0
          else int_of_float (ceil (float_of_int d *. (log (rq /. r0) /. log 2.0)))
        in
        let radius i = r0 *. (2.0 ** (float_of_int i /. float_of_int d)) in
        let walk_steps = HR.default_steps ~dim:d in
        Tel.Counter.incr tel_estimates;
        Tel.Counter.add tel_phases q;
        Tel.Counter.add tel_samples (q * samples_per_phase);
        let product = ref 1.0 in
        let start = ref (Vec.create d) in
        for i = 1 to q do
          let r_small = radius (i - 1) and r_big = Float.min rq (radius i) in
          let hits = ref 0 in
          for _ = 1 to samples_per_phase do
            let p = phase_sample rng ~poly:body ~radius:r_big ~walk_steps !start in
            start := p;
            if Vec.norm p <= r_small then incr hits
          done;
          let ratio =
            if samples_per_phase = 0 then 1.0
            else Float.max (float_of_int !hits /. float_of_int samples_per_phase) 1e-9
          in
          Tel.Histogram.observe tel_ratio ratio;
          product := !product /. ratio
        done;
        let inner = Vol.ball_volume ~dim:d ~radius:r0 in
        Some (inner *. !product /. Affine.volume_scale rounded.Ro.transform)
end

(* Everything a phase walk leaves behind besides its result: counter
   totals, the phase-ratio histogram, progress steps and warnings, each
   read from stores private to one run. *)
type footprint = {
  counters : (string * int option) list;
  ratio_hist : int * float;
  progress_steps : float;
  warns : int;
  stuck_warns : int;
}

let observed f =
  let module Tel = Scdb_telemetry.Telemetry in
  let module Log = Scdb_log.Log in
  let module Progress = Scdb_progress.Progress in
  let reg = Tel.Registry.create () in
  let sink = Log.Sink.create ~stderr:false () in
  let bus = Progress.Bus.create () in
  let tel_was = Tel.enabled () and log_was = Log.enabled () and level_was = Log.level () in
  Tel.set_enabled true;
  Log.set_enabled true;
  Log.set_level Log.Warn;
  Fun.protect ~finally:(fun () ->
      Tel.set_enabled tel_was;
      Log.set_enabled log_was;
      Log.set_level level_was)
  @@ fun () ->
  Tel.with_registry reg @@ fun () ->
  Log.with_sink sink @@ fun () ->
  Progress.with_bus bus @@ fun () ->
  Progress.start ~rows:[| (0, "root", 0.0) |] ();
  let r = Fun.protect ~finally:Progress.stop f in
  let names =
    [
      "hit_and_run.samples"; "hit_and_run.steps"; "hit_and_run.chord_degenerate";
      "volume.estimates"; "volume.phases"; "volume.samples";
    ]
  in
  let contains needle line =
    let n = String.length needle and l = String.length line in
    let rec scan i = i + n <= l && (String.sub line i n = needle || scan (i + 1)) in
    scan 0
  in
  ( r,
    {
      counters = List.map (fun n -> (n, Tel.counter_value ~reg n)) names;
      ratio_hist =
        (let h = Tel.Histogram.make "volume.phase_ratio" in
         (Tel.Histogram.count h, Tel.Histogram.sum h));
      progress_steps = Progress.Bus.steps bus;
      warns = Log.Sink.warn_count sink;
      stuck_warns =
        List.length (List.filter (contains "hit_and_run.stuck") (Log.Sink.tail sink));
    } )

let check_footprint name (a : footprint) (b : footprint) =
  List.iter2
    (fun (n, x) (_, y) -> Alcotest.(check (option int)) (name ^ ": " ^ n) x y)
    a.counters b.counters;
  Alcotest.(check int) (name ^ ": phase ratios") (fst a.ratio_hist) (fst b.ratio_hist);
  Alcotest.(check int64) (name ^ ": ratio sum bits")
    (Int64.bits_of_float (snd a.ratio_hist))
    (Int64.bits_of_float (snd b.ratio_hist));
  Alcotest.(check (float 0.0)) (name ^ ": progress steps") a.progress_steps b.progress_steps;
  Alcotest.(check int) (name ^ ": warnings") a.warns b.warns;
  Alcotest.(check int) (name ^ ": stuck warnings") a.stuck_warns b.stuck_warns

let fig1_tuples =
  let formula =
    "(x >= 0 /\\ y >= 0 /\\ x + y <= 1) \\/ (x >= 2 /\\ x <= 3 /\\ y >= 0 /\\ y <= 1)"
  in
  let rel = Relation.of_formula ~dim:2 (Parser.parse ~vars:[ "x"; "y" ] formula) in
  List.mapi
    (fun i tuple -> (Printf.sprintf "fig1 tuple %d" i, P.of_tuple ~dim:2 tuple))
    (Relation.tuples rel)

let random_body () =
  (* 6 cube facets + 14 random cuts = 20 halfspaces. *)
  let rng = Rng.create 2020 in
  let poly = ref (P.cube 3 1.0) in
  for _ = 1 to 14 do
    poly := P.add_halfspace !poly (Rng.unit_vector rng 3) 0.75
  done;
  !poly

(* Reference phase loop and in-place phase walk over the same [steps]
   from the origin, each on its own rng: minor words per step. *)
let walk_words poly ~radius ~steps =
  let d = P.dim poly in
  let w0 = Gc.minor_words () in
  ignore (Reference_volume.phase_sample (Rng.create 1) ~poly ~radius ~walk_steps:steps (Vec.create d));
  let w1 = Gc.minor_words () in
  HR.phase_walk (Rng.create 1) poly ~radius ~pos:(Vec.create d) ~dir:(Vec.create d)
    ~range:(Array.make 2 0.0) ~steps;
  let w2 = Gc.minor_words () in
  ((w1 -. w0) /. float_of_int steps, (w2 -. w1) /. float_of_int steps)

let phase_walk_tests =
  [
    t "in-place phase walk is bit-identical to the reference estimate" (fun () ->
        let bodies =
          [
            ("simplex2", P.simplex 2); ("simplex3", P.simplex 3); ("simplex4", P.simplex 4);
            ("simplex5", P.simplex 5); ("cube3", P.unit_cube 3);
            ("cross3", P.cross_polytope 3 1.0); ("random20", random_body ());
          ]
          @ fig1_tuples
        in
        List.iter
          (fun (name, poly) ->
            List.iter
              (fun seed ->
                let name = Printf.sprintf "%s seed %d" name seed in
                let n = 60 in
                let rng_ref = Rng.create seed and rng_new = Rng.create seed in
                let v_ref, fp_ref =
                  observed (fun () -> Reference_volume.estimate rng_ref ~samples_per_phase:n poly)
                in
                let v_new, fp_new =
                  observed (fun () ->
                      Option.map
                        (fun r -> r.Vol.volume)
                        (Vol.estimate rng_new ~budget:(Vol.Practical n) poly))
                in
                (match (v_ref, v_new) with
                | Some a, Some b ->
                    Alcotest.(check int64) (name ^ ": volume bits") (Int64.bits_of_float a)
                      (Int64.bits_of_float b)
                | _ -> Alcotest.fail (name ^ ": estimation failed"));
                Alcotest.(check int) (name ^ ": rng draws") (Rng.draw_count rng_ref)
                  (Rng.draw_count rng_new);
                check_footprint name fp_ref fp_new)
              [ 1; 42; 2024 ])
          bodies);
    t "phase walk from outside the body stays put like the reference" (fun () ->
        (* The box [2,3]×[0,1] misses B(0, 1), so the walked body is
           empty: every chord through the outside start is degenerate,
           neither walk moves, and both warn once. *)
        let poly = P.box [| 2.0; 0.0 |] [| 3.0; 1.0 |] in
        let start = [| 5.0; 5.0 |] in
        let steps = 64 in
        let rng_ref = Rng.create 9 and rng_new = Rng.create 9 in
        let p_ref, fp_ref =
          observed (fun () ->
              Reference_volume.phase_sample rng_ref ~poly ~radius:1.0 ~walk_steps:steps start)
        in
        let pos = Vec.copy start in
        let (), fp_new =
          observed (fun () ->
              HR.phase_walk rng_new poly ~radius:1.0 ~pos ~dir:(Vec.create 2)
                ~range:(Array.make 2 0.0) ~steps)
        in
        Array.iteri
          (fun i x ->
            Alcotest.(check int64) (Printf.sprintf "coordinate %d bits" i)
              (Int64.bits_of_float x) (Int64.bits_of_float pos.(i)))
          p_ref;
        Alcotest.(check (option int)) "every chord degenerate" (Some steps)
          (List.assoc "hit_and_run.chord_degenerate" fp_new.counters);
        Alcotest.(check int) "stuck warning" 1 fp_new.stuck_warns;
        Alcotest.(check int) "rng draws" (Rng.draw_count rng_ref) (Rng.draw_count rng_new);
        check_footprint "outside" fp_ref fp_new);
    t "phase walk allocates 3x fewer minor words per step" (fun () ->
        List.iter
          (fun (name, poly, radius) ->
            ignore (walk_words poly ~radius ~steps:100);
            let w_ref, w_new = walk_words poly ~radius ~steps:20_000 in
            Alcotest.(check bool)
              (Printf.sprintf "%s: %.1f -> %.1f words/step" name w_ref w_new)
              true
              (w_new *. 3.0 <= w_ref))
          (List.map
             (fun d ->
               (* The rounded body holds the unit ball at the origin, so
                  the walks start inside poly ∩ B(0, 2). *)
               let rounded = Option.get (Ro.round (Rng.create 3) (P.simplex d)) in
               (Printf.sprintf "simplex%d" d, rounded.Ro.rounded, 2.0))
             [ 2; 4 ]));
  ]

(* The batched structure-of-arrays kernel: per-chain trajectories must
   be bit-identical to the single-chain incremental kernel (Compat
   direction mode), and the batched chord machinery must not allocate
   per step. *)
let batch_tests =
  let module BW = Scdb_sampling.Ball_walk in
  let fixture_poly seed dim =
    let rng0 = Rng.create seed in
    let poly = ref (P.cube dim 1.0) in
    for _ = 1 to 12 do
      poly := P.add_halfspace !poly (Rng.unit_vector rng0 dim) 0.8
    done;
    !poly
  in
  [
    t "K=1 batched hit-and-run is bit-identical to the incremental kernel" (fun () ->
        (* 600 steps crosses the refresh_interval=256 cache refresh
           twice, so the exact-recomputation cadence is covered too. *)
        let poly = fixture_poly 4242 3 in
        let start = Vec.create 3 in
        List.iter
          (fun seed ->
            let incr = HR.sample_polytope (Rng.create seed) poly ~start ~steps:600 in
            let batch =
              HR.sample_polytope_batch [| Rng.create seed |] poly ~starts:[| start |]
                ~steps:600
            in
            Alcotest.(check bool) (Printf.sprintf "seed %d" seed) true (incr = batch.(0)))
          [ 42; 1000; 31337 ]);
    t "K=4 Compat chains are bit-identical to sequential single-chain runs" (fun () ->
        let poly = fixture_poly 777 4 in
        let seeds = [| 11; 22; 33; 44 |] in
        let starts = Array.make 4 (Vec.create 4) in
        let sequential =
          Array.map
            (fun seed -> HR.sample_polytope (Rng.create seed) poly ~start:(Vec.create 4) ~steps:300)
            seeds
        in
        let rngs = Array.map Rng.create seeds in
        let batch =
          HR.sample_polytope_batch ~dir_mode:HR.Compat rngs poly ~starts ~steps:300
        in
        Array.iteri
          (fun c expected ->
            Alcotest.(check bool) (Printf.sprintf "chain %d" c) true (expected = batch.(c)))
          sequential);
    t "K=1 batched lattice walk is bit-identical to the incremental kernel" (fun () ->
        let poly = P.cube 3 1.0 in
        let grid = G.make ~step:0.25 ~dim:3 in
        let start = Vec.create 3 in
        List.iter
          (fun seed ->
            let incr = W.sample_polytope (Rng.create seed) ~grid poly ~start ~steps:600 in
            let batch =
              W.sample_polytope_batch [| Rng.create seed |] ~grid poly ~starts:[| start |]
                ~steps:600
            in
            Alcotest.(check bool) (Printf.sprintf "seed %d" seed) true (incr = batch.(0)))
          [ 7; 99; 20060101 ]);
    t "Fast direction mode stays inside the body" (fun () ->
        let poly = fixture_poly 9001 4 in
        let starts = Array.init 8 (fun _ -> Vec.create 4) in
        let rng = Rng.create 555 in
        let rngs = Array.init 8 (fun _ -> Rng.split rng) in
        let pts = HR.sample_polytope_batch ~dir_mode:HR.Fast rngs poly ~starts ~steps:80 in
        Array.iteri
          (fun c p ->
            Alcotest.(check bool)
              (Printf.sprintf "chain %d inside" c)
              true
              (P.mem ~slack:1e-9 poly p))
          pts);
    t "batched ball walk moves and stays inside" (fun () ->
        let poly = P.cube 3 1.0 in
        let starts = Array.init 4 (fun _ -> Vec.create 3) in
        let rng = Rng.create 31 in
        let rngs = Array.init 4 (fun _ -> Rng.split rng) in
        let pts = BW.sample_polytope_batch rngs poly ~starts ~steps:200 () in
        Array.iteri
          (fun c p ->
            Alcotest.(check bool)
              (Printf.sprintf "chain %d inside" c)
              true
              (P.mem ~slack:1e-9 poly p);
            Alcotest.(check bool)
              (Printf.sprintf "chain %d moved" c)
              true
              (Vec.norm2 p > 0.0))
          pts);
    t "batched chord_all/advance inner loop does not allocate" (fun () ->
        let poly = fixture_poly 5 6 in
        let k = 4 in
        let starts = Array.init k (fun _ -> Vec.create 6) in
        let b = P.Kernel.Batch.make poly starts in
        let rng = Rng.create 6 in
        let dirs = Array.init k (fun _ -> Rng.unit_vector rng 6) in
        Array.iteri (fun c dir -> P.Kernel.Batch.set_dir b c dir) dirs;
        let iters = 10_000 in
        for _ = 1 to 100 do
          P.Kernel.Batch.chord_all b;
          for c = 0 to k - 1 do
            P.Kernel.Batch.advance b c 1e-6
          done
        done;
        let w0 = Gc.minor_words () in
        for _ = 1 to iters do
          P.Kernel.Batch.chord_all b;
          for c = 0 to k - 1 do
            P.Kernel.Batch.advance b c 1e-6
          done
        done;
        let dw = Gc.minor_words () -. w0 in
        Alcotest.(check bool)
          (Printf.sprintf "minor words per batched step = %.4f" (dw /. float_of_int iters))
          true
          (dw < 256.0));
    t "batched try_set_coord and propose_all do not allocate" (fun () ->
        let poly = P.cube 4 1.0 in
        let k = 3 in
        let b = P.Kernel.Batch.make poly (Array.init k (fun _ -> Vec.create 4)) in
        let delta = [| 0.05; -0.05; 0.05; -0.05 |] in
        for c = 0 to k - 1 do
          P.Kernel.Batch.set_dir b c delta
        done;
        let iters = 10_000 in
        for _ = 1 to 100 do
          P.Kernel.Batch.propose_all b;
          for c = 0 to k - 1 do
            ignore (P.Kernel.Batch.try_set_coord b c 0 0.25);
            ignore (P.Kernel.Batch.try_set_coord b c 0 0.0)
          done
        done;
        let w0 = Gc.minor_words () in
        for _ = 1 to iters do
          P.Kernel.Batch.propose_all b;
          for c = 0 to k - 1 do
            ignore (P.Kernel.Batch.try_set_coord b c 0 0.25);
            ignore (P.Kernel.Batch.try_set_coord b c 0 0.0)
          done
        done;
        let dw = Gc.minor_words () -. w0 in
        Alcotest.(check bool)
          (Printf.sprintf "minor words per batched move = %.4f" (dw /. float_of_int iters))
          true
          (dw < 256.0));
  ]

let suites =
  [
    ("sampling.grid", grid_tests);
    ("sampling.walk", walk_tests);
    ("sampling.kernel", kernel_tests);
    ("sampling.batch", batch_tests);
    ("sampling.phase_walk", phase_walk_tests);
    ("sampling.hit_and_run", hit_and_run_tests);
    ("sampling.rejection", rejection_tests);
    ("sampling.chernoff", chernoff_tests);
    ("sampling.rounding", rounding_tests);
    ("sampling.volume", volume_tests);
    ("sampling.oracle_body", oracle_body_tests);
    ("sampling.ball_walk", ball_walk_tests);
    ("sampling.stats", stats_tests);
    ("sampling.mixing", mixing_tests);
  ]
