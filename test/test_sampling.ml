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

(* The pipeline's hit-and-run: one chain of the batched kernel. *)
let hr1 rng poly ~start ~steps = (HR.sample_polytope_batch [| rng |] poly ~starts:[| start |] ~steps).(0)

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
          let p = hr1 rng tri ~start:!start ~steps:25 in
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
    t "median_of_means counts its draws like the other estimators" (fun () ->
        (* Its blocks are trials of the projection volume: they must
           reach [chernoff.samples] and the progress bus alike. *)
        let module Tel = Scdb_telemetry.Telemetry in
        let module Progress = Scdb_progress.Progress in
        let was = Tel.enabled () in
        Tel.set_enabled true;
        Fun.protect ~finally:(fun () -> Tel.set_enabled was) @@ fun () ->
        Tel.reset ();
        Progress.start ~rows:[| (0, "root", 0.0) |] ();
        Fun.protect ~finally:Progress.stop @@ fun () ->
        ignore (Ch.median_of_means (Rng.create 9) ~blocks:9 ~block_size:200 Rng.float);
        Alcotest.(check (option int)) "chernoff.samples" (Some 1800)
          (Tel.counter_value "chernoff.samples");
        Alcotest.(check (float 0.0)) "progress trials" 1800.0
          (Progress.rows ()).(0).Progress.trials);
    t "invalid parameters rejected" (fun () ->
        List.iter
          (fun f -> try ignore (f ()); Alcotest.fail "expected Invalid_argument" with Invalid_argument _ -> ())
          [
            (fun () -> Ch.samples_for_additive ~eps:0.0 ~delta:0.1);
            (fun () -> Ch.samples_for_ratio ~eps:0.1 ~delta:0.1 ~p_lower:0.0);
          ]);
    t "stopping rule covers 1+-eps w.p. 1-delta" (fun () ->
        (* DKLR: [Υ₁/N] lies within (1±ε) of p with probability ≥ 1−δ,
           in E[N] ≈ Υ₁/p trials.  200 seeds per p; the coverage is
           certified by the Clopper–Pearson lower bound. *)
        let eps = 0.2 and delta = 0.1 and runs = 200 in
        let upsilon = Scdb_plan.Cost.stopping_threshold ~eps ~delta in
        List.iter
          (fun p ->
            let within = ref 0 and trials = ref 0 in
            for seed = 1 to runs do
              let r =
                Ch.estimate_fraction_stopping (Rng.create seed) ~eps ~delta ~p_floor:0.01 (fun r ->
                    Rng.float r < p)
              in
              trials := !trials + r.Ch.trials;
              if Float.abs (r.Ch.estimate -. p) <= eps *. p then incr within
            done;
            let lo, _ = Scdb_audit.Audit.clopper_pearson ~hits:!within ~runs () in
            Alcotest.(check bool)
              (Printf.sprintf "p=%g: %d/%d within, CP lower %.3f >= %g" p !within runs lo
                 (1.0 -. delta))
              true
              (lo >= 1.0 -. delta);
            let mean_n = float_of_int !trials /. float_of_int runs in
            let expect = upsilon /. p in
            Alcotest.(check bool)
              (Printf.sprintf "p=%g: mean N %.0f within 10%% of %.0f" p mean_n expect)
              true
              (Float.abs (mean_n -. expect) <= 0.1 *. expect))
          [ 0.9; 0.3; 0.05 ]);
    t "stopping rule honours its cap exactly" (fun () ->
        let eps = 0.2 and delta = 0.1 in
        let run ?max_trials ~p_floor p =
          let calls = ref 0 in
          let r =
            Ch.estimate_fraction_stopping (Rng.create 3) ~eps ~delta ~p_floor ?max_trials (fun r ->
                incr calls;
                Rng.float r < p)
          in
          Alcotest.(check int) "trials = calls" !calls r.Ch.trials;
          Alcotest.(check (float 0.0)) "capped runs return hits/N"
            (float_of_int r.Ch.hits /. float_of_int r.Ch.trials)
            r.Ch.estimate;
          r.Ch.trials
        in
        (* The floor's cap, 2·⌈Υ₁/p_floor⌉, well below what p = 0.3 needs. *)
        Alcotest.(check int) "floor cap"
          (2 * Scdb_plan.Cost.stopping_trials ~eps ~delta ~p_lower:1.0)
          (run ~p_floor:1.0 0.3);
        Alcotest.(check int) "explicit clamp" 100 (run ~max_trials:100 ~p_floor:0.01 0.5));
    t "zero-hit stopping run returns 0 after exactly the cap" (fun () ->
        let calls = ref 0 in
        let r =
          Ch.estimate_fraction_stopping (Rng.create 4) ~eps:0.2 ~delta:0.1 ~p_floor:0.01 (fun _ ->
              incr calls;
              false)
        in
        let cap = 2 * Scdb_plan.Cost.stopping_trials ~eps:0.2 ~delta:0.1 ~p_lower:0.01 in
        Alcotest.(check int) "draws = cap" cap !calls;
        Alcotest.(check int) "trials = cap" cap r.Ch.trials;
        Alcotest.(check (float 0.0)) "no hits means zero" 0.0 r.Ch.estimate);
    t "stopping rule rejects eps outside (0,1)" (fun () ->
        List.iter
          (fun eps ->
            try
              ignore
                (Ch.estimate_fraction_stopping (Rng.create 0) ~eps ~delta:0.1 ~p_floor:0.5 (fun _ ->
                     true));
              Alcotest.fail (Printf.sprintf "eps=%g: expected Invalid_argument" eps)
            with Invalid_argument _ -> ())
          [ 0.0; -0.1; 1.0; 1.5 ]);
  ]

let rounding_tests =
  [
    t "rounding centres and normalizes inscribed ball" (fun () ->
        let rng = Rng.create 10 in
        let elongated = P.box [| 0.; 0. |] [| 50.; 0.5 |] in
        match Ro.round rng elongated with
        | Ok r ->
            Alcotest.(check bool) "r_inf ≈ 1" true (Float.abs (r.Ro.r_inf -. 1.0) < 0.05);
            Alcotest.(check bool) "aspect much improved" true (Ro.aspect_ratio r < 10.0)
        | Error _ -> Alcotest.fail "expected rounding");
    t "empty body" (fun () ->
        let empty = P.make ~dim:1 [| [| 1. |]; [| -1. |] |] [| -1.; -1. |] in
        Alcotest.(check bool) "empty" true (Ro.round (Rng.create 0) empty = Error Ro.Empty));
    t "unbounded body" (fun () ->
        let hs = P.make ~dim:2 [| [| 1.; 0. |] |] [| 1. |] in
        Alcotest.(check bool) "unbounded" true (Ro.round (Rng.create 0) hs = Error Ro.Unbounded));
    t "half-strip is unbounded though its inscribed ball is bounded" (fun () ->
        (* 0 <= y <= 1, x >= 5: the Chebyshev radius is 1/2. *)
        let strip = P.make ~dim:2 [| [| 0.; 1. |]; [| 0.; -1. |]; [| -1.; 0. |] |] [| 1.; 0.; -5. |] in
        Alcotest.(check bool) "unbounded" true (Ro.inscribed_ball strip = Error Ro.Unbounded));
    t "a ray is flat, not unbounded" (fun () ->
        let ray = P.make ~dim:2 [| [| 0.; 1. |]; [| 0.; -1. |]; [| -1.; 0. |] |] [| 0.; 0.; -5. |] in
        Alcotest.(check bool) "flat" true (Ro.round (Rng.create 0) ray = Error Ro.Flat));
    t "volume scale consistency" (fun () ->
        let rng = Rng.create 11 in
        let b = P.box [| 0.; 0. |] [| 4.; 1. |] in
        match Ro.round rng b with
        | Ok r ->
            (* vol(rounded) = vol(b) * scale; check via exact rounded-volume
               of the box being preserved through the affine identity *)
            let scale = Affine.volume_scale r.Ro.transform in
            Alcotest.(check bool) "scale positive" true (scale > 0.0)
        | Error _ -> Alcotest.fail "expected rounding");
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
    t "starved budgets are rejected" (fun () ->
        let raises name f =
          match f () with
          | (_ : Vol.report option) -> Alcotest.failf "%s: accepted" name
          | exception Invalid_argument _ -> ()
        in
        let poly = P.simplex 2 in
        raises "Practical 0" (fun () -> Vol.estimate (Rng.create 0) ~budget:(Vol.Practical 0) poly);
        raises "Practical -5" (fun () ->
            Vol.estimate (Rng.create 0) ~budget:(Vol.Practical (-5)) poly);
        raises "walk_steps 0" (fun () -> Vol.estimate (Rng.create 0) ~walk_steps:0 poly);
        raises "walk_steps -3" (fun () ->
            Vol.estimate (Rng.create 0) ~sampler:Vol.Grid_walk ~walk_steps:(-3) poly);
        Alcotest.(check bool) "Practical 1 still runs" true
          (Option.is_some (Vol.estimate (Rng.create 0) ~budget:(Vol.Practical 1) ~walk_steps:1 poly)));
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
            let incr = hr1 (Rng.create seed) poly ~start ~steps:128 in
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
            let incr =
              (W.sample_polytope_batch [| Rng.create seed |] ~grid poly ~starts:[| start |]
                 ~steps:600).(0)
            in
            Alcotest.(check bool) (Printf.sprintf "seed %d" seed) true (naive = incr))
          [ 7; 99; 20060101 ]);
    t "chord/advance inner loop does not allocate" (fun () ->
        let rng = Rng.create 5 in
        let poly = ref (P.cube 6 1.0) in
        for _ = 1 to 20 do
          poly := P.add_halfspace !poly (Rng.unit_vector rng 6) 0.8
        done;
        (* One chain: the K = 1 branch of [chord_all]. *)
        let b = P.Kernel.Batch.make !poly [| Vec.create 6 |] in
        P.Kernel.Batch.set_dir b 0 (Rng.unit_vector rng 6);
        let iters = 10_000 in
        (* Warm-up pass so one-time setup is off the books. *)
        for _ = 1 to 100 do
          P.Kernel.Batch.chord_all b;
          P.Kernel.Batch.advance b 0 1e-6
        done;
        let w0 = Gc.minor_words () in
        for _ = 1 to iters do
          P.Kernel.Batch.chord_all b;
          P.Kernel.Batch.advance b 0 1e-6
        done;
        let dw = Gc.minor_words () -. w0 in
        Alcotest.(check bool)
          (Printf.sprintf "minor words per step = %.4f" (dw /. float_of_int iters))
          true
          (dw < 256.0));
    t "try_set_coord inner loop does not allocate" (fun () ->
        let poly = P.cube 4 1.0 in
        let b = P.Kernel.Batch.make poly [| Vec.create 4 |] in
        let iters = 10_000 in
        for _ = 1 to 100 do
          ignore (P.Kernel.Batch.try_set_coord b 0 0 0.25);
          ignore (P.Kernel.Batch.try_set_coord b 0 0 0.0)
        done;
        let w0 = Gc.minor_words () in
        for _ = 1 to iters do
          ignore (P.Kernel.Batch.try_set_coord b 0 0 0.25);
          ignore (P.Kernel.Batch.try_set_coord b 0 0 0.0)
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
          let p = hr1 rng poly ~start:(Vec.create 2) ~steps:40 in
          sx := !sx +. p.(0);
          sy := !sy +. p.(1)
        done;
        Alcotest.(check (float 0.1)) "mean x" 0.0 (!sx /. float_of_int n);
        Alcotest.(check (float 0.1)) "mean y" 0.0 (!sy /. float_of_int n));
  ]

(* The volume estimator's phase walk: one chain of the batched kernel
   with ziggurat directions ([HR.phase_walk]).  Its stream is pinned,
   its estimates are checked against the exact oracle, and its
   accounting, stuck handling and allocation are checked directly. *)

(* Everything a phase walk leaves behind besides its result: counter
   totals, the phase-ratio histogram, progress steps and warnings, each
   read from stores reset before the run. *)
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
  let tel_was = Tel.enabled () and log_was = Log.enabled () and level_was = Log.level () in
  Tel.set_enabled true;
  Log.set_enabled true;
  Log.set_level Log.Warn;
  Log.set_stderr false;
  Fun.protect ~finally:(fun () ->
      Tel.set_enabled tel_was;
      Log.set_enabled log_was;
      Log.set_level level_was)
  @@ fun () ->
  Tel.reset ();
  Log.set_ring_capacity 256;
  Log.reset ();
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
      counters = List.map (fun n -> (n, Tel.counter_value n)) names;
      ratio_hist =
        (let h = Tel.Histogram.make "volume.phase_ratio" in
         (Tel.Histogram.count h, Tel.Histogram.sum h));
      progress_steps = (Progress.rows ()).(0).Progress.steps;
      warns = Log.warn_count ();
      stuck_warns = List.length (List.filter (contains "hit_and_run.stuck") (Log.tail ()));
    } )

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


let phase_bodies () =
  [
    ("simplex2", P.simplex 2); ("simplex3", P.simplex 3); ("simplex4", P.simplex 4);
    ("simplex5", P.simplex 5); ("cube3", P.unit_cube 3);
    ("cross3", P.cross_polytope 3 1.0); ("random20", random_body ());
  ]
  @ fig1_tuples

(* [Practical 60] estimates: volume bits (as hex floats) and raw rng
   draws per (body, seed).  Any change to the phase walk's stream or
   arithmetic moves these. *)
let pinned_estimates =
  [
    ("simplex2", 1, "0x1.97f5f3c48aa8ap-2", 56138);
    ("simplex2", 42, "0x1.e580fd9848d59p-2", 45084);
    ("simplex2", 2024, "0x1.d4e131c1fe24cp-2", 56197);
    ("simplex3", 1, "0x1.67b967d29dfb9p-3", 197787);
    ("simplex3", 42, "0x1.42945f259fc8p-3", 197859);
    ("simplex3", 2024, "0x1.2e5ac639ca08fp-3", 220889);
    ("simplex4", 1, "0x1.31e80c5f21cbbp-5", 674342);
    ("simplex4", 42, "0x1.042a2ee760053p-5", 674293);
    ("simplex4", 2024, "0x1.16952e15126b9p-5", 674740);
    ("simplex5", 1, "0x1.76dc034d0e3edp-8", 1746424);
    ("simplex5", 42, "0x1.02e7e65668512p-7", 1746511);
    ("simplex5", 2024, "0x1.094d79473acbp-7", 1746791);
    ("cube3", 1, "0x1.e85ead4894e49p-1", 128796);
    ("cube3", 42, "0x1.e43e3fd9df051p-1", 105869);
    ("cube3", 2024, "0x1.1f08ccbe29f36p+0", 128887);
    ("cross3", 1, "0x1.3ca255b244424p+0", 174803);
    ("cross3", 42, "0x1.33a2ac97859ffp+0", 151842);
    ("cross3", 2024, "0x1.99d5e1a845189p+0", 174921);
    ("random20", 1, "0x1.804990b5b5981p+1", 151781);
    ("random20", 42, "0x1.4e04511c094f1p+1", 128864);
    ("random20", 2024, "0x1.b25f657d1b287p+1", 151903);
    ("fig1 tuple 0", 1, "0x1.97f5f3c48aa8ap-2", 56138);
    ("fig1 tuple 0", 42, "0x1.e580fd9848d59p-2", 45084);
    ("fig1 tuple 0", 2024, "0x1.d4e131c1fe24cp-2", 56197);
    ("fig1 tuple 1", 1, "0x1.d87c8b6dbaf5ep-1", 33965);
    ("fig1 tuple 1", 42, "0x1.0b76bf05ce03dp+0", 34001);
    ("fig1 tuple 1", 2024, "0x1.eb604d404e9a7p-1", 34063)
  ]

(* Minor words per step of [steps] phase-walk moves from the origin,
   after the batch is built. *)
let walk_words poly ~radius ~steps =
  let b = P.Kernel.Batch.make poly [| Vec.create (P.dim poly) |] in
  let rng = Rng.create 1 in
  let w0 = Gc.minor_words () in
  HR.phase_walk rng b ~radius ~steps;
  (Gc.minor_words () -. w0) /. float_of_int steps

let phase_walk_tests =
  [
    t "pinned stream: volume bits and rng draws" (fun () ->
        let bodies = phase_bodies () in
        List.iter
          (fun (name, seed, hex, draws) ->
            let rng = Rng.create seed in
            match Vol.estimate rng ~budget:(Vol.Practical 60) (List.assoc name bodies) with
            | Some r ->
                let name = Printf.sprintf "%s seed %d" name seed in
                Alcotest.(check string) (name ^ ": volume") hex (Printf.sprintf "%h" r.Vol.volume);
                Alcotest.(check int) (name ^ ": rng draws") draws (Rng.draw_count rng)
            | None -> Alcotest.failf "%s: estimation failed" name)
          pinned_estimates);
    ts "estimates agree with the exact oracle" (fun () ->
        (* The production budget over seeds 1-20 per body: no body's
           mean relative error is beyond three standard errors, and the
           90th percentile of |error| over every estimate is <= 6%.
           Two domains share the estimates; each owns its rng, so the
           errors do not depend on the schedule. *)
        let module VE = Scdb_polytope.Volume_exact in
        let seeds = 20 in
        let bodies =
          List.map
            (fun (name, poly) ->
              (name, poly, Rational.to_float (VE.volume_tuple ~dim:(P.dim poly) (P.to_tuple poly))))
            (phase_bodies ())
        in
        let jobs =
          Array.of_list (List.concat_map (fun b -> List.init seeds (fun s -> (b, s + 1))) bodies)
        in
        let errs = Array.make (Array.length jobs) Float.nan in
        let next = Atomic.make 0 in
        let rec work () =
          let i = Atomic.fetch_and_add next 1 in
          if i < Array.length jobs then begin
            let (_, poly, truth), seed = jobs.(i) in
            (match Vol.estimate (Rng.create seed) ~budget:(Vol.Practical 2000) poly with
            | Some r -> errs.(i) <- (r.Vol.volume -. truth) /. truth
            | None -> ());
            work ()
          end
        in
        let helper = Domain.spawn work in
        work ();
        Domain.join helper;
        List.iteri
          (fun bi (name, _, _) ->
            let e = Array.sub errs (bi * seeds) seeds in
            if Array.exists Float.is_nan e then Alcotest.failf "%s: estimation failed" name;
            let n = float_of_int seeds in
            let mean = Array.fold_left ( +. ) 0.0 e /. n in
            let var = Array.fold_left (fun a x -> a +. ((x -. mean) ** 2.0)) 0.0 e /. (n -. 1.0) in
            let bound = 3.0 *. sqrt var /. sqrt n in
            Alcotest.(check bool)
              (Printf.sprintf "%s: |mean rel err| %.4f < %.4f" name (Float.abs mean) bound)
              true
              (Float.abs mean < bound))
          bodies;
        let sorted = Array.map Float.abs errs in
        Array.sort compare sorted;
        let n = Array.length sorted in
        let p90 = sorted.(int_of_float (ceil (0.9 *. float_of_int n)) - 1) in
        Alcotest.(check bool) (Printf.sprintf "p90 |rel err| %.4f <= 0.06" p90) true (p90 <= 0.06));
    t "accounting: steps, samples and progress per phase sample" (fun () ->
        List.iter
          (fun (name, poly) ->
            let n = 40 in
            let count fp c = Option.value ~default:0 (List.assoc c fp.counters) in
            let _, fp_round = observed (fun () -> Ro.round (Rng.create 5) poly) in
            let r, fp =
              observed (fun () -> Option.get (Vol.estimate (Rng.create 5) ~budget:(Vol.Practical n) poly))
            in
            let walked = r.Vol.phases * n in
            let check what expected got = Alcotest.(check int) (name ^ ": " ^ what) expected got in
            check "volume.phases" r.Vol.phases (count fp "volume.phases");
            check "volume.samples" walked (count fp "volume.samples");
            check "hit_and_run.samples"
              (count fp_round "hit_and_run.samples" + walked)
              (count fp "hit_and_run.samples");
            check "hit_and_run.steps"
              (count fp_round "hit_and_run.steps" + (walked * r.Vol.walk_steps))
              (count fp "hit_and_run.steps");
            Alcotest.(check (float 0.0)) (name ^ ": progress steps")
              (float_of_int (count fp "hit_and_run.steps"))
              fp.progress_steps;
            Alcotest.(check (float 0.0)) (name ^ ": rounding progress")
              (float_of_int (count fp_round "hit_and_run.steps"))
              fp_round.progress_steps;
            Alcotest.(check int) (name ^ ": phase ratios") r.Vol.phases (fst fp.ratio_hist))
          [ ("simplex3", P.simplex 3); ("random20", random_body ()) ]);
    t "phase walk from outside the body stays put and warns once" (fun () ->
        (* The box [2,3]×[0,1] misses B(0, 1), so the walked body is
           empty: every chord through the outside start is degenerate
           and the chain never moves. *)
        let poly = P.box [| 2.0; 0.0 |] [| 3.0; 1.0 |] in
        let start = [| 5.0; 5.0 |] in
        let steps = 64 in
        let b = P.Kernel.Batch.make poly [| start |] in
        let (), fp = observed (fun () -> HR.phase_walk (Rng.create 9) b ~radius:1.0 ~steps) in
        Array.iteri
          (fun i x ->
            Alcotest.(check int64) (Printf.sprintf "coordinate %d bits" i) (Int64.bits_of_float x)
              (Int64.bits_of_float (P.Kernel.Batch.positions b).(i)))
          start;
        Alcotest.(check (option int)) "steps" (Some steps)
          (List.assoc "hit_and_run.steps" fp.counters);
        Alcotest.(check (option int)) "every chord degenerate" (Some steps)
          (List.assoc "hit_and_run.chord_degenerate" fp.counters);
        Alcotest.(check int) "stuck warning" 1 fp.stuck_warns;
        Alcotest.(check int) "no other warning" 1 fp.warns);
    t "phase walk allocates at most one minor word per step" (fun () ->
        List.iter
          (fun d ->
            (* The rounded body holds the unit ball at the origin, so
               the walk starts inside poly ∩ B(0, 2). *)
            let rounded = Result.get_ok (Ro.round (Rng.create 3) (P.simplex d)) in
            ignore (walk_words rounded.Ro.rounded ~radius:2.0 ~steps:100);
            let w = walk_words rounded.Ro.rounded ~radius:2.0 ~steps:20_000 in
            Alcotest.(check bool) (Printf.sprintf "simplex%d: %.2f words/step" d w) true (w <= 1.0))
          [ 2; 4 ]);
  ]

(* Pinned K=1 streams: the exact bits of the final position and the
   raw rng draw count after 600 steps of the one-chain hit-and-run
   (ziggurat directions, the interpreter's stream) and lattice walk, on
   seeds 1, 42 and 2024.  Flight records and AUDIT_1.json replay these
   streams, so any change to the one-chain kernel's arithmetic or draw
   order fails here first.  600 steps cross the refresh_interval = 256
   exact cache recomputation twice. *)
let k1_bodies =
  let simplex d =
    (Printf.sprintf "simplex%d" d, P.simplex d, Array.make d (1.0 /. float_of_int (d + 1)))
  in
  (* Built like the regress harness's timing fixture: [-1,1]^12 cut by
     48 random halfspaces at distance 0.8 (72 rows). *)
  let regress12 =
    let rng = Rng.create 20060101 in
    let poly = ref (P.cube 12 1.0) in
    for _ = 1 to 48 do
      poly := P.add_halfspace !poly (Rng.unit_vector rng 12) 0.8
    done;
    !poly
  in
  [
    simplex 2; simplex 3; simplex 4; simplex 5;
    ("cube3", P.cube 3 1.0, Vec.create 3);
    ("regress12", regress12, Vec.create 12);
  ]

let k1_pins =
  [
      ("hr", "simplex2", 1, 1858, "0x1.76b7e7863f0e8p-2 0x1.dcb615170596ep-3");
      ("hr", "simplex2", 42, 1834, "0x1.2deec57bb3918p-2 0x1.9989e6b0117bp-4");
      ("hr", "simplex2", 2024, 1844, "0x1.f717abc26c62ap-2 0x1.b6722345190aep-2");
      ("hr", "simplex3", 1, 2483, "0x1.d26801d47277ap-3 0x1.39991615f5e9bp-3 0x1.66b5ff029b54p-2");
      ("hr", "simplex3", 42, 2459,
        "0x1.102aa324c71e5p-2 0x1.de9f41b5fc15ap-2 0x1.389179be40c25p-3");
      ("hr", "simplex3", 2024, 2458,
        "0x1.2525434072e0ep-4 0x1.891b54f9c581p-5 0x1.0880e3d05702bp-1");
      ("hr", "simplex4", 1, 3118,
        "0x1.0ab6ec42670cp-4 0x1.c38c5249221c6p-2 0x1.4626b15744e34p-4 0x1.ab5efe7ada722p-4");
      ("hr", "simplex4", 42, 3081,
        "0x1.2a719df12fbb9p-5 0x1.6be46ee83784ap-4 0x1.32e6aabd3e8e4p-2 0x1.52efcc81f936ep-6");
      ("hr", "simplex4", 2024, 3101,
        "0x1.2c4c14550b58p-1 0x1.7c42593abef12p-5 0x1.2455e25fa83d6p-6 0x1.b350b552a5facp-3");
      ("hr", "simplex5", 1, 3727,
        "0x1.3c5a63ab17e3ep-5 0x1.af57e0c7a7207p-7 0x1.6ae9799fe62b9p-4 0x1.02a88cc559796p-4 \
         0x1.911307ae7888p-1");
      ("hr", "simplex5", 42, 3716,
        "0x1.33e907fb3bf76p-2 0x1.89d2e335b4acap-3 0x1.73659cbc36ee7p-2 0x1.cd17dd824eeb6p-4 \
         0x1.aef9dadd8f351p-6");
      ("hr", "simplex5", 2024, 3715,
        "0x1.d86def5bd18e6p-7 0x1.4d99ad99963cap-3 0x1.3615ea016f0d4p-2 0x1.01111506893bdp-3 \
         0x1.4d77497ec79d4p-2");
      ("hr", "cube3", 1, 2483, "0x1.92d296d39ebbp-2 -0x1.16b28a3a90c42p-2 0x1.aabe2121192ap-2");
      ("hr", "cube3", 42, 2459, "0x1.3c67a70f968cp-4 0x1.0f4c6abaa8b9ap-3 -0x1.2e38be07173d3p-2");
      ("hr", "cube3", 2024, 2458,
        "-0x1.866970fcae252p-1 -0x1.ae79b7dbbb235p-1 0x1.b2c21952e9807p-1");
      ("hr", "regress12", 1, 8118,
        "-0x1.bf24a245555ep-8 -0x1.d72feacb909cbp-2 0x1.10d30b80bee66p-2 0x1.80fa2d4cfd1cbp-1 \
         -0x1.14c2d85004e06p-1 0x1.8b488261a216ep-2 -0x1.04944d69ea7e6p-3 0x1.1b89ba0d8481p-4 \
         -0x1.74012e7cfafa4p-1 -0x1.dfd841b766254p-1 -0x1.c945ea9676272p-3 -0x1.241b583ed6a06p-1");
      ("hr", "regress12", 42, 8066,
        "-0x1.0b1662c8c67e8p-3 -0x1.0f4a6d743ad4fp-1 0x1.043c2acd39788p-1 -0x1.8e20db7f85624p-3 \
         0x1.2ccf2358d833ap-1 0x1.2d69e84156e69p-4 -0x1.458a98ffcdf89p-1 -0x1.709c59a0c4116p-1 \
         -0x1.1ceea6c8fdebbp-1 -0x1.44ec0ce281902p-2 0x1.d8562ecf8dbe4p-2 -0x1.f85f0acd91e51p-3");
      ("hr", "regress12", 2024, 8093,
        "-0x1.d425207bccdd1p-2 -0x1.a06519cb387c3p-2 0x1.5dad182e2595ap-2 -0x1.a66de43b1798p-4 \
         0x1.fceadee57eaf3p-2 0x1.2819dcb942bfp-5 0x1.233ed362b6903p-1 0x1.3821c54999d14p-1 \
         -0x1.c4843a4514455p-2 -0x1.d907b0705e5dap-3 0x1.7c4dc0f88656ap-1 -0x1.92b6fdc064b98p-3");
      ("walk", "simplex2", 1, 1200, "0x1p-2 0x1p-2");
      ("walk", "simplex2", 42, 1202, "0x1p-4 0x1.ap-1");
      ("walk", "simplex2", 2024, 1242, "0x1p-1 0x0p+0");
      ("walk", "simplex3", 1, 1200, "0x1p-4 0x1p-4 0x1.2p-1");
      ("walk", "simplex3", 42, 1202, "0x1p-2 0x1p-1 0x0p+0");
      ("walk", "simplex3", 2024, 1242, "0x1p-1 0x1p-4 0x1.8p-3");
      ("walk", "simplex4", 1, 1200, "0x1.cp-2 0x1p-3 0x0p+0 0x1p-2");
      ("walk", "simplex4", 42, 1202, "0x0p+0 0x1p-3 0x1p-4 0x1.6p-1");
      ("walk", "simplex4", 2024, 1242, "0x1.ap-1 0x1p-4 0x0p+0 0x0p+0");
      ("walk", "simplex5", 1, 1200,
        "0x1p-2 0x1p-3 0x0p+0 0x1p-1 \
         0x0p+0");
      ("walk", "simplex5", 42, 1202,
        "0x0p+0 0x1.8p-2 0x1p-3 0x1.4p-2 \
         0x0p+0");
      ("walk", "simplex5", 2024, 1242,
        "0x1.4p-2 0x1p-4 0x0p+0 0x1.4p-2 \
         0x0p+0");
      ("walk", "cube3", 1, 1200, "-0x1p-2 -0x1.8p-2 0x1p-1");
      ("walk", "cube3", 42, 1202, "0x1p-1 0x1.8p-1 -0x1.8p-1");
      ("walk", "cube3", 2024, 1242, "0x1.4p-1 -0x1.8p-2 -0x1.ap-1");
      ("walk", "regress12", 1, 1200,
        "0x1.4p-2 0x1p-3 0x1.4p-2 0x1p-4 \
         -0x1.8p-3 0x1.8p-3 -0x1.4p-1 -0x1p-4 \
         0x1.8p-2 0x0p+0 -0x1p-2 -0x1.8p-2");
      ("walk", "regress12", 42, 1202,
        "0x1p-3 0x1.cp-2 -0x1p-3 0x1p-1 \
         -0x1.8p-3 0x1p-3 0x1p-2 0x1.2p-1 \
         -0x1.cp-1 -0x1.8p-3 -0x1p-4 0x1p-3");
      ("walk", "regress12", 2024, 1242,
        "0x1.cp-1 0x1p-4 -0x1p-2 -0x1.8p-3 \
         -0x1.4p-2 -0x1.8p-3 0x0p+0 -0x1p-2 \
         -0x1.cp-2 0x1p-3 0x1p-3 -0x1p-2");
  ]

let k1_stream sampler body start seed =
  let rng = Rng.create seed in
  let p =
    match sampler with
    | "hr" ->
        (HR.sample_polytope_batch [| rng |] body ~starts:[| start |] ~steps:600).(0)
    | _ ->
        let grid = G.make ~step:0.0625 ~dim:(P.dim body) in
        (W.sample_polytope_batch [| rng |] ~grid body ~starts:[| start |] ~steps:600).(0)
  in
  (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%h") p)), Rng.draw_count rng)

let check_k1_pins sampler =
  let cases = List.filter (fun (s, _, _, _, _) -> s = sampler) k1_pins in
  Alcotest.(check int) "pinned cases" 18 (List.length cases);
  List.iter
    (fun (_, name, seed, draws, hex) ->
      let _, body, start = List.find (fun (n, _, _) -> n = name) k1_bodies in
      let got_hex, got_draws = k1_stream sampler body start seed in
      let label = Printf.sprintf "%s %s seed %d" sampler name seed in
      Alcotest.(check string) (label ^ ": bits") hex got_hex;
      Alcotest.(check int) (label ^ ": draws") draws got_draws)
    cases

(* The batched structure-of-arrays kernel: the one-chain streams are
   pinned above, every chain of a K>1 batch is bit-identical to its own
   one-chain run, and the batched chord machinery must not allocate per
   step. *)
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
    t "K=1 batched hit-and-run is pinned: bits and draw counts" (fun () -> check_k1_pins "hr");
    t "K=1 batched lattice walk is pinned: bits and draw counts" (fun () ->
        check_k1_pins "walk");
    t "K=4 batched chains are bit-identical to sequential single-chain runs" (fun () ->
        (* Register-blocked path against the K = 1 branch. *)
        let poly = fixture_poly 777 4 in
        let seeds = [| 11; 22; 33; 44 |] in
        let starts = Array.make 4 (Vec.create 4) in
        let sequential =
          Array.map
            (fun seed -> hr1 (Rng.create seed) poly ~start:(Vec.create 4) ~steps:300)
            seeds
        in
        let rngs = Array.map Rng.create seeds in
        let batch = HR.sample_polytope_batch rngs poly ~starts ~steps:300 in
        Array.iteri
          (fun c expected ->
            Alcotest.(check bool) (Printf.sprintf "chain %d" c) true (expected = batch.(c)))
          sequential);
    t "K=8 batched chains stay inside the body" (fun () ->
        let poly = fixture_poly 9001 4 in
        let starts = Array.init 8 (fun _ -> Vec.create 4) in
        let rng = Rng.create 555 in
        let rngs = Array.init 8 (fun _ -> Rng.split rng) in
        let pts = HR.sample_polytope_batch rngs poly ~starts ~steps:80 in
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
  ]
