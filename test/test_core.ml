(* Tests for the paper's core: observables and their algebra. *)

open Scdb_core
module P = Scdb_polytope.Polytope
module VE = Scdb_polytope.Volume_exact
module Rng = Scdb_rng.Rng
module Q = Rational

let t name f = Alcotest.test_case name `Quick f
let ts name f = Alcotest.test_case name `Slow f

let q = Q.of_int
let cfg = Convex_obs.practical_config
let params = Params.make ~gamma:0.05 ~eps:0.15 ~delta:0.1 ()

let params_tests =
  [
    t "validation" (fun () ->
        List.iter
          (fun f -> try ignore (f ()); Alcotest.fail "expected Invalid_argument" with Invalid_argument _ -> ())
          [
            (fun () -> Params.make ~eps:0.0 ());
            (fun () -> Params.make ~eps:1.0 ());
            (fun () -> Params.make ~gamma:(-0.1) ());
            (fun () -> Params.make ~delta:2.0 ());
          ]);
    t "with_cached_volume calls the base estimator once per (eps,delta)" (fun () ->
        let calls = ref 0 in
        let dummy =
          Observable.make ~dim:1
            ~mem:(fun _ -> true)
            ~sample:(fun _ _ -> None)
            ~volume:(fun _ ~gamma:_ ~eps:_ ~delta:_ -> incr calls; 1.0)
            ()
        in
        let cached = Observable.with_cached_volume dummy in
        let rng = Rng.create 0 in
        ignore (Observable.volume cached rng ~eps:0.1 ~delta:0.1);
        ignore (Observable.volume cached rng ~eps:0.1 ~delta:0.1);
        ignore (Observable.volume cached rng ~eps:0.2 ~delta:0.1);
        Alcotest.(check int) "two distinct keys" 2 !calls);
    t "sample_exn raises after exhausting retries" (fun () ->
        let dummy =
          Observable.make ~dim:1
            ~mem:(fun _ -> true)
            ~sample:(fun _ _ -> None)
            ~volume:(fun _ ~gamma:_ ~eps:_ ~delta:_ -> 1.0)
            ()
        in
        try
          ignore (Observable.sample_exn dummy (Rng.create 0) params);
          Alcotest.fail "expected Estimation_failed"
        with Observable.Estimation_failed _ -> ());
    t "make rejects relation dimension mismatch" (fun () ->
        try
          ignore
            (Observable.make ~relation:(Relation.unit_cube 2) ~dim:3
               ~mem:(fun _ -> true)
               ~sample:(fun _ _ -> None)
               ~volume:(fun _ ~gamma:_ ~eps:_ ~delta:_ -> 0.0)
               ());
          Alcotest.fail "expected Invalid_argument"
        with Invalid_argument _ -> ());
    t "third_eps" (fun () ->
        let p = Params.make ~eps:0.3 () in
        Alcotest.(check (float 1e-12)) "eps/3" 0.1 (Params.eps (Params.third_eps p));
        Alcotest.(check (float 1e-12)) "gamma kept" (Params.gamma p) (Params.gamma (Params.third_eps p)));
  ]

let convex_tests =
  [
    ts "DFK base case: generator and estimator on a box" (fun () ->
        let rng = Rng.create 20 in
        let r = Relation.box [| q 0; q 0 |] [| q 2; q 1 |] in
        match Convex_obs.make ~config:cfg rng r with
        | None -> Alcotest.fail "expected observable"
        | Some o ->
            Alcotest.(check int) "dim" 2 (Observable.dim o);
            (* volume *)
            let v = Observable.volume o rng ~eps:0.2 ~delta:0.2 in
            Alcotest.(check bool) "volume" true (Float.abs (v -. 2.0) < 0.3);
            (* samples in relation, left/right halves balanced *)
            let n = 600 in
            let left = ref 0 in
            for _ = 1 to n do
              let x = Observable.sample_exn o rng params in
              Alcotest.(check bool) "member" true (Relation.mem_float ~slack:1e-6 r x);
              if x.(0) < 1.0 then incr left
            done;
            Alcotest.(check bool) "balanced" true (abs (!left - (n / 2)) < 90));
    t "empty relation refuses" (fun () ->
        let r = Parser.parse_relation ~vars:[ "x" ] "x <= 0 /\\ x >= 1" in
        Alcotest.(check bool) "none" true (Option.is_none (Convex_obs.make (Rng.create 0) r)));
    t "unbounded relation refuses" (fun () ->
        Alcotest.(check bool) "none" true
          (Option.is_none (Convex_obs.make (Rng.create 0) (Relation.halfspace ~dim:1 (Term.var 0)))));
    t "prepare_tuples refuses a union with an unbounded tuple" (fun () ->
        let box = Relation.unit_cube 2 in
        let half = Relation.halfspace ~dim:2 (Term.var 0) in
        Alcotest.check_raises "unbounded" VE.Unbounded (fun () ->
            ignore (Convex_obs.prepare_tuples (Rng.create 0) (Relation.union box half)));
        let segment = Parser.parse_relation ~vars:[ "x"; "y" ] "0 <= x /\\ x <= 1 /\\ y = 0" in
        Alcotest.(check int) "flat tuple dropped" 1
          (List.length (Convex_obs.prepare_tuples (Rng.create 0) (Relation.union box segment))));
    t "multi-tuple relation rejected" (fun () ->
        let r = Relation.union (Relation.unit_cube 1) (Relation.box [| q 2 |] [| q 3 |]) in
        try
          ignore (Convex_obs.make (Rng.create 0) r);
          Alcotest.fail "expected Invalid_argument"
        with Invalid_argument _ -> ());
    t "grid-walk generator outputs grid points of the rounded body" (fun () ->
        let rng = Rng.create 21 in
        let r = Relation.unit_cube 2 in
        let o = Option.get (Convex_obs.make ~config:Convex_obs.default_config rng r) in
        (* just check generation succeeds and lands inside *)
        let x = Observable.sample_exn o rng params in
        Alcotest.(check bool) "inside" true (Relation.mem_float ~slack:1e-6 r x));
  ]

let union_tests =
  [
    ts "Algorithm 1: union volume and per-operand balance" (fun () ->
        let rng = Rng.create 22 in
        (* disjoint boxes of areas 1 and 3: samples must split 1:3 *)
        let a = Option.get (Convex_obs.make ~config:cfg rng (Relation.box [| q 0; q 0 |] [| q 1; q 1 |])) in
        let b = Option.get (Convex_obs.make ~config:cfg rng (Relation.box [| q 2; q 0 |] [| q 5; q 1 |])) in
        let u = Union.union2 a b in
        let v = Observable.volume u rng ~eps:0.2 ~delta:0.2 in
        Alcotest.(check bool) "volume 4" true (Float.abs (v -. 4.0) < 0.5);
        let n = 800 in
        let in_a = ref 0 in
        for _ = 1 to n do
          let x = Observable.sample_exn u rng params in
          if x.(0) <= 1.0 then incr in_a
        done;
        Alcotest.(check bool)
          (Printf.sprintf "1:3 split (got %d/%d)" !in_a n)
          true
          (Float.abs ((float_of_int !in_a /. float_of_int n) -. 0.25) < 0.06));
    ts "overlap counted once" (fun () ->
        let rng = Rng.create 23 in
        let a = Option.get (Convex_obs.make ~config:cfg rng (Relation.box [| q 0 |] [| q 2 |])) in
        let b = Option.get (Convex_obs.make ~config:cfg rng (Relation.box [| q 1 |] [| q 3 |])) in
        let v = Observable.volume (Union.union2 a b) rng ~eps:0.15 ~delta:0.2 in
        Alcotest.(check bool) "3 not 4" true (Float.abs (v -. 3.0) < 0.35));
    ts "m-ary union (Corollary 4.2)" (fun () ->
        let rng = Rng.create 24 in
        let slab i =
          Option.get (Convex_obs.make ~config:cfg rng (Relation.box [| q (2 * i) |] [| q ((2 * i) + 1) |]))
        in
        let u = Union.union (List.init 5 slab) in
        let v = Observable.volume u rng ~eps:0.2 ~delta:0.2 in
        Alcotest.(check bool) "volume 5" true (Float.abs (v -. 5.0) < 0.6);
        (* samples must reach every component *)
        let seen = Array.make 5 false in
        for _ = 1 to 300 do
          let x = Observable.sample_exn u rng params in
          seen.(int_of_float x.(0) / 2) <- true
        done;
        Alcotest.(check bool) "all components hit" true (Array.for_all Fun.id seen));
    t "mixed dimensions rejected" (fun () ->
        let rng = Rng.create 0 in
        let a = Option.get (Convex_obs.make ~config:cfg rng (Relation.unit_cube 1)) in
        let b = Option.get (Convex_obs.make ~config:cfg rng (Relation.unit_cube 2)) in
        try
          ignore (Union.union2 a b);
          Alcotest.fail "expected Invalid_argument"
        with Invalid_argument _ -> ());
    t "trials_for grows with m and 1/delta" (fun () ->
        Alcotest.(check bool) "monotone m" true (Union.trials_for ~m:10 ~delta:0.1 > Union.trials_for ~m:2 ~delta:0.1);
        Alcotest.(check bool) "monotone delta" true
          (Union.trials_for ~m:2 ~delta:0.001 > Union.trials_for ~m:2 ~delta:0.5));
    t "volume passes the caller's gamma to child generators" (fun () ->
        (* Regression: the Karp–Luby acceptance trials used to run at a
           hard-coded gamma = 0.1, so the volume path discretized on a
           different grid than the sample path whenever the caller asked
           for another resolution. *)
        let seen_gammas = ref [] in
        let child =
          Observable.make ~dim:1
            ~mem:(fun _ -> true)
            ~sample:(fun _ p ->
              seen_gammas := Params.gamma p :: !seen_gammas;
              Some [| 0.5 |])
            ~volume:(fun _ ~gamma:_ ~eps:_ ~delta:_ -> 1.0)
            ()
        in
        let u = Union.union [ child ] in
        let rng = Rng.create 7 in
        ignore (Observable.volume u ~gamma:0.37 rng ~eps:0.5 ~delta:0.2);
        Alcotest.(check bool) "trials ran" true (!seen_gammas <> []);
        List.iter
          (fun g -> Alcotest.(check (float 1e-12)) "caller's gamma, not 0.1" 0.37 g)
          !seen_gammas;
        (* And with gamma left to default, children see the 0.1 default. *)
        seen_gammas := [];
        ignore (Observable.volume u rng ~eps:0.5 ~delta:0.2);
        List.iter
          (fun g -> Alcotest.(check (float 1e-12)) "default gamma" 0.1 g)
          !seen_gammas);
    t "cached volume distinguishes gamma" (fun () ->
        let calls = ref 0 in
        let dummy =
          Observable.make ~dim:1
            ~mem:(fun _ -> true)
            ~sample:(fun _ _ -> None)
            ~volume:(fun _ ~gamma:_ ~eps:_ ~delta:_ -> incr calls; 1.0)
            ()
        in
        let cached = Observable.with_cached_volume dummy in
        let rng = Rng.create 0 in
        ignore (Observable.volume cached ~gamma:0.1 rng ~eps:0.1 ~delta:0.1);
        ignore (Observable.volume cached ~gamma:0.4 rng ~eps:0.1 ~delta:0.1);
        ignore (Observable.volume cached ~gamma:0.4 rng ~eps:0.1 ~delta:0.1);
        Alcotest.(check int) "gamma is part of the key" 2 !calls);
    t "Karp-Luby zero acceptance is flagged, not silently zero" (fun () ->
        (* Children that claim positive volume but whose generators
           always fail drive the acceptance count to 0: the estimate
           degrades to 0.0 with no statistical backing, which must be
           recorded as a generator failure rather than a small volume. *)
        let module Tel = Scdb_telemetry.Telemetry in
        let broken =
          Observable.make ~dim:1
            ~mem:(fun _ -> true)
            ~sample:(fun _ _ -> None)
            ~volume:(fun _ ~gamma:_ ~eps:_ ~delta:_ -> 1.0)
            ()
        in
        let u = Union.union [ broken; broken ] in
        let was = Tel.enabled () in
        Tel.set_enabled true;
        Tel.reset ();
        Fun.protect ~finally:(fun () -> Tel.set_enabled was) @@ fun () ->
        let v = Observable.volume u (Rng.create 5) ~eps:0.3 ~delta:0.3 in
        Alcotest.(check (float 0.0)) "degraded estimate" 0.0 v;
        Alcotest.(check (option int))
          "union.volume.zero_acceptance incremented" (Some 1)
          (Tel.counter_value "union.volume.zero_acceptance"));
    ts "Karp-Luby trials follow the acceptance, not the 1/m floor" (fun () ->
        (* Disjoint operands accept every trial, so the stopping rule
           ends after ⌈Υ₁⌉ trials where the floor-sized loop ran m·Υ₁. *)
        let module Tel = Scdb_telemetry.Telemetry in
        let rng = Rng.create 26 in
        let slab i =
          Option.get (Convex_obs.make ~config:cfg rng (Relation.box [| q (2 * i) |] [| q ((2 * i) + 1) |]))
        in
        let u = Union.union (List.init 3 slab) in
        let was = Tel.enabled () in
        Tel.set_enabled true;
        Tel.reset ();
        Fun.protect ~finally:(fun () -> Tel.set_enabled was) @@ fun () ->
        let eps = 0.3 and delta = 0.2 in
        let v = Observable.volume u rng ~eps ~delta in
        Alcotest.(check bool) (Printf.sprintf "volume 3 (got %g)" v) true (Float.abs (v -. 3.0) < 0.3);
        let upsilon = Scdb_plan.Cost.stopping_threshold ~eps:(eps /. 3.0) ~delta:(delta /. 4.0) in
        let bound = 1.05 *. ceil upsilon in
        let trials = Option.value (Tel.counter_value "union.volume.trials") ~default:0 in
        Alcotest.(check bool)
          (Printf.sprintf "%d trials <= %.0f" trials bound)
          true
          (trials > 0 && float_of_int trials <= bound));
  ]

let inter_diff_tests =
  [
    ts "Proposition 4.1: poly-related intersection" (fun () ->
        let rng = Rng.create 25 in
        let a = Option.get (Convex_obs.make ~config:cfg rng (Relation.box [| q 0; q 0 |] [| q 2; q 1 |])) in
        let b = Option.get (Convex_obs.make ~config:cfg rng (Relation.box [| q 1; q 0 |] [| q 3; q 1 |])) in
        let it = Inter.inter2 a b in
        let v = Observable.volume it rng ~eps:0.15 ~delta:0.2 in
        Alcotest.(check bool) "volume 1" true (Float.abs (v -. 1.0) < 0.2);
        let x = Observable.sample_exn it rng params in
        Alcotest.(check bool) "in both" true (x.(0) >= 1.0 -. 1e-6 && x.(0) <= 2.0 +. 1e-6));
    ts "thin intersection fails gracefully (condition violated)" (fun () ->
        let rng = Rng.create 26 in
        (* overlap of width 1e-4 out of boxes of size 1: not poly-related for k=2 *)
        let a = Option.get (Convex_obs.make ~config:cfg rng (Relation.box [| q 0 |] [| Q.of_string "1.0001" |])) in
        let b = Option.get (Convex_obs.make ~config:cfg rng (Relation.box [| q 1 |] [| q 2 |])) in
        let it = Inter.inter ~poly_degree:1 [ a; b ] in
        (* generator should mostly fail: None is the documented outcome *)
        let fails = ref 0 in
        for _ = 1 to 5 do
          if Option.is_none (Observable.sample it rng params) then incr fails
        done;
        Alcotest.(check bool) "mostly fails" true (!fails >= 3));
    ts "Proposition 4.2: difference" (fun () ->
        let rng = Rng.create 27 in
        let a = Option.get (Convex_obs.make ~config:cfg rng (Relation.box [| q 0 |] [| q 3 |])) in
        let b = Option.get (Convex_obs.make ~config:cfg rng (Relation.box [| q 1 |] [| q 2 |])) in
        let d = Diff.diff a b in
        let v = Observable.volume d rng ~eps:0.15 ~delta:0.2 in
        Alcotest.(check bool) "volume 2" true (Float.abs (v -. 2.0) < 0.3);
        (* samples in both components of the (disconnected!) difference *)
        let low = ref 0 and high = ref 0 in
        for _ = 1 to 200 do
          let x = Observable.sample_exn d rng params in
          Alcotest.(check bool) "outside b" true (x.(0) <= 1.0 +. 1e-6 || x.(0) >= 2.0 -. 1e-6);
          if x.(0) < 1.5 then incr low else incr high
        done;
        Alcotest.(check bool) "both components" true (!low > 40 && !high > 40));
  ]

let project_tests =
  [
    ts "Theorem 4.3: compensated projection is uniform" (fun () ->
        let rng = Rng.create 28 in
        let tri = P.simplex 2 in
        let proj = Option.get (Project.project rng tri ~keep:[ 0 ]) in
        let n = 800 in
        let mean = ref 0.0 in
        for _ = 1 to n do
          let y = Observable.sample_exn proj rng params in
          mean := !mean +. y.(0)
        done;
        (* uniform on [0,1] has mean 1/2; the naive projection has 1/3 *)
        Alcotest.(check bool) "mean 1/2" true (Float.abs ((!mean /. float_of_int n) -. 0.5) < 0.05));
    ts "naive projection is biased (Fig. 1)" (fun () ->
        let rng = Rng.create 29 in
        let tri = P.simplex 2 in
        let obs = Option.get (Convex_obs.of_polytope ~config:cfg rng tri) in
        let n = 800 in
        let mean = ref 0.0 in
        for _ = 1 to n do
          match Project.naive_projection_sample rng obs ~keep:[ 0 ] params with
          | Some y -> mean := !mean +. y.(0)
          | None -> Alcotest.fail "unexpected failure"
        done;
        Alcotest.(check bool) "mean 1/3" true (Float.abs ((!mean /. float_of_int n) -. (1.0 /. 3.0)) < 0.05));
    ts "projection volume via fiber identity" (fun () ->
        let rng = Rng.create 30 in
        (* project box [0,1]x[0,2]x[0,3] to first coordinate: length 1 *)
        let b = P.box [| 0.; 0.; 0. |] [| 1.; 2.; 3. |] in
        let proj = Option.get (Project.project rng b ~keep:[ 0 ]) in
        let v = Observable.volume proj rng ~eps:0.25 ~delta:0.25 in
        Alcotest.(check bool) "length 1" true (Float.abs (v -. 1.0) < 0.25));
    t "fiber computation" (fun () ->
        let b = P.box [| 0.; 0. |] [| 2.; 1. |] in
        let f = Project.fiber b ~keep:[ 0 ] [| 0.5 |] in
        Alcotest.(check int) "dim" 1 (P.dim f);
        Alcotest.(check bool) "inside" true (P.mem f [| 0.5 |]);
        Alcotest.(check bool) "outside" false (P.mem f [| 1.5 |]));
    t "fiber volume exact mode" (fun () ->
        let rng = Rng.create 0 in
        let b = P.box [| 0.; 0.; 0. |] [| 1.; 2.; 3. |] in
        let h = Project.fiber_volume_of ~fiber_volume:Project.Exact rng b ~keep:[ 0 ] [| 0.5 |] in
        Alcotest.(check (float 1e-9)) "2*3" 6.0 h);
    t "membership of projection via LP" (fun () ->
        let rng = Rng.create 31 in
        let tri = P.simplex 2 in
        let proj = Option.get (Project.project rng tri ~keep:[ 0 ]) in
        Alcotest.(check bool) "0.5 in" true (Observable.mem proj [| 0.5 |]);
        Alcotest.(check bool) "1.5 out" false (Observable.mem proj [| 1.5 |]));
    t "bad keep arguments" (fun () ->
        let rng = Rng.create 0 in
        List.iter
          (fun keep ->
            try
              ignore (Project.project rng (P.unit_cube 2) ~keep);
              Alcotest.fail "expected Invalid_argument"
            with Invalid_argument _ -> ())
          [ []; [ 0; 1 ]; [ 5 ] ]);
    t "projection stream pinned across the exact fiber oracle" (fun () ->
        (* An elevation prism has 1-D fibers, the exact oracle's
           cheapest path.  The oracle consumes no rng, so the points and
           draw count move only with the walk stream (last re-pinned
           when every walk moved to ziggurat directions). *)
        let base =
          Scdb_gis.Synth.random_convex_parcel (Rng.create 7) ~centre:[| 1.0; 1.0 |] ~radius:1.0
            ~facets:5
        in
        let prism = Scdb_gis.Synth.elevation_prism ~base ~height:(Q.of_ints 3 2) in
        let poly = P.of_tuple ~dim:3 (List.hd (Relation.tuples prism)) in
        let rng = Rng.create 11 in
        let proj = Option.get (Project.project rng poly ~keep:[ 0; 1 ]) in
        let points =
          Observable.sample_many proj rng (Params.make ~gamma:0.01 ~eps:0.2 ~delta:0.1 ()) ~n:5
        in
        Alcotest.(check (list (list string)))
          "points"
          [
            [ "0x1.cce0c62c65b79p-1"; "0x1.6edf096323accp-1" ];
            [ "0x1.7d1fa404dfc83p-1"; "0x1.8914b92b0a087p+0" ];
            [ "0x1.2f42dd57dfa02p-1"; "0x1.24a637d7959b3p+0" ];
            [ "0x1.ea8eba066666ep-1"; "0x1.844707b08036fp-1" ];
            [ "0x1.34064bc4c0af5p+0"; "0x1.9acba8acabba8p-2" ];
          ]
          (List.map (fun p -> List.map (Printf.sprintf "%h") (Array.to_list p)) points);
        Alcotest.(check int) "draws" 57163 (Rng.draw_count rng));
    t "the integer fiber oracle equals the rational composition bit for bit" (fun () ->
        (* The composition the oracle replaces: the float fiber, each
           coefficient rounded to 2^-20 as a rational, then the exact
           volume of that rational system by the test suite's rational
           reference recursion, which shares no code with the library's
           integer one. *)
        let quantize x = Q.of_float (Float.round (x *. 1048576.0) /. 1048576.0) in
        let composed poly ~keep y =
          let f = Project.fiber poly ~keep y in
          let a = Array.map (Array.map quantize) f.P.a and b = Array.map quantize f.P.b in
          match Test_polytope.Reference_oracle.volume_system ~dim:(P.dim f) a b with
          | v -> Ok (Int64.bits_of_float (Q.to_float v))
          | exception VE.Unbounded -> Error "unbounded fiber"
        in
        let oracle poly ~keep y =
          match Project.fiber_volume_of ~fiber_volume:Project.Exact (Rng.create 0) poly ~keep y with
          | v -> Ok (Int64.bits_of_float v)
          | exception Observable.Estimation_failed m -> Error m
        in
        let same poly ~keep y =
          let expected = composed poly ~keep y in
          Alcotest.(check (result int64 string)) "fiber volume" expected (oracle poly ~keep y);
          expected
        in
        (* A random polytope in R^3 with 53-bit coefficients, cut to
           [-1,1]^3: keeping two coordinates leaves 1-D fibers, keeping
           one leaves 2-D fibers.  The points spill past the shadow. *)
        let rng = Rng.create 5 in
        let cuts = Array.init 7 (fun _ -> Array.init 3 (fun _ -> Rng.uniform rng (-1.0) 1.0)) in
        let box = P.box (Array.make 3 (-1.0)) (Array.make 3 1.0) in
        let poly =
          P.make ~dim:3 (Array.append cuts box.P.a)
            (Array.append (Array.init 7 (fun _ -> Rng.uniform rng 0.2 1.0)) box.P.b)
        in
        List.iter
          (fun keep ->
            let volumes =
              List.init 300 (fun _ ->
                  same poly ~keep (Array.init (List.length keep) (fun _ -> Rng.uniform rng (-1.5) 1.5)))
            in
            let zero = Ok (Int64.bits_of_float 0.0) in
            Alcotest.(check bool) "some y outside the shadow" true (List.mem zero volumes);
            Alcotest.(check bool) "some y inside" true (List.exists (fun v -> v <> zero) volumes))
          [ [ 0; 1 ]; [ 0 ] ];
        (* x kept, z the fiber: the row x + 1e-7·z <= -0.5 has a slope
           that quantizes to 0 and, at x = 0, a negative right-hand
           side, so the fiber is empty. *)
        let slab =
          P.make ~dim:2 [| [| 0.; 1. |]; [| 0.; -1. |]; [| 1.; 1e-7 |]; [| -1.; 0. |] |] [| 1.; 0.; -0.5; 1. |]
        in
        Alcotest.(check (result int64 string))
          "quantized-away slope" (Ok (Int64.bits_of_float 0.0)) (same slab ~keep:[ 0 ] [| 0.0 |]);
        (* Fibers with no upper bound on z, of codim 1 and 2. *)
        let open_above dim =
          P.make ~dim
            (Array.init (dim + 1) (fun i -> Array.init dim (fun j -> if i = j then -1.0 else if i = dim && j = 0 then 1.0 else 0.0)))
            (Array.init (dim + 1) (fun i -> if i = dim then 1.0 else 0.0))
        in
        Alcotest.(check (result int64 string))
          "unbounded, codim 1" (Error "unbounded fiber") (same (open_above 2) ~keep:[ 0 ] [| 0.5 |]);
        Alcotest.(check (result int64 string))
          "unbounded, codim 2" (Error "unbounded fiber") (same (open_above 3) ~keep:[ 0 ] [| 0.5 |]));
  ]

let fixed_dim_tests =
  [
    t "Theorem 3.1: disconnected relation observable in fixed dim" (fun () ->
        let rng = Rng.create 32 in
        let r = Relation.union (Relation.box [| q 0 |] [| q 1 |]) (Relation.box [| q 3 |] [| q 5 |]) in
        let o = Option.get (Fixed_dim.observable r) in
        let v = Observable.volume o rng ~eps:0.02 ~delta:0.1 in
        Alcotest.(check bool) "volume 3" true (Float.abs (v -. 3.0) < 0.1);
        let low = ref 0 in
        let n = 1200 in
        for _ = 1 to n do
          let x = Observable.sample_exn o rng params in
          Alcotest.(check bool) "member" true (Relation.mem_float ~slack:0.1 r x);
          if x.(0) < 2.0 then incr low
        done;
        (* component masses 1 and 2 *)
        Alcotest.(check bool) "1:2 split" true
          (Float.abs ((float_of_int !low /. float_of_int n) -. (1.0 /. 3.0)) < 0.06));
    t "exact volume matches" (fun () ->
        (* The grid count against the exact Lasserre volume, 3. *)
        let r = Relation.union (Relation.box [| q 0 |] [| q 1 |]) (Relation.box [| q 3 |] [| q 5 |]) in
        let exact = Q.to_float (VE.volume_relation r) in
        let o = Option.get (Fixed_dim.observable r) in
        let v = Observable.volume o (Rng.create 33) ~eps:0.02 ~delta:0.1 in
        Alcotest.(check bool) (Printf.sprintf "grid %g vs exact %g" v exact) true
          (Float.abs (v -. exact) <= 0.02 *. exact));
    t "empty gives none" (fun () ->
        let r = Parser.parse_relation ~vars:[ "x" ] "x <= 0 /\\ x >= 1" in
        Alcotest.(check bool) "none" true (Option.is_none (Fixed_dim.observable r)));
  ]

let reconstruct_tests =
  [
    ts "Lemma 4.1: hull error shrinks with N" (fun () ->
        let rng = Rng.create 33 in
        let tri = P.simplex 2 in
        let obs = Option.get (Convex_obs.of_polytope ~config:cfg rng tri) in
        let sd n =
          let r = Reconstruct.convex_hull_estimate rng obs ~n in
          Reconstruct.symmetric_difference_mc rng ~samples:6000 r
            (fun x -> P.mem tri x)
            ~lo:[| 0.; 0. |] ~hi:[| 1.; 1. |]
        in
        let e1 = sd 30 and e2 = sd 300 in
        Alcotest.(check bool) (Printf.sprintf "monotone: %.4f -> %.4f" e1 e2) true (e2 < e1);
        Alcotest.(check bool) "small at n=300" true (e2 < 0.05));
    t "lemma41 bound monotone in eps" (fun () ->
        let n1 = Reconstruct.samples_for_lemma41 ~eps:0.2 ~delta:0.1 ~dim:3 ~vertices:8 in
        let n2 = Reconstruct.samples_for_lemma41 ~eps:0.1 ~delta:0.1 ~dim:3 ~vertices:8 in
        Alcotest.(check bool) "monotone" true (n2 > n1));
    ts "union of hulls for a disconnected set (Algorithm 5)" (fun () ->
        let rng = Rng.create 34 in
        let p1 = Relation.box [| q 0; q 0 |] [| q 1; q 1 |] in
        let p2 = Relation.box [| q 2; q 0 |] [| q 3; q 1 |] in
        let o1 = Option.get (Convex_obs.make ~config:cfg rng p1) in
        let o2 = Option.get (Convex_obs.make ~config:cfg rng p2) in
        let r = Reconstruct.union_estimate rng [ o1; o2 ] ~n:120 in
        let reference x = Relation.mem_float (Relation.union p1 p2) x in
        let sd =
          Reconstruct.symmetric_difference_mc rng ~samples:6000 r reference ~lo:[| 0.; 0. |]
            ~hi:[| 3.; 1. |]
        in
        Alcotest.(check bool) (Printf.sprintf "sd=%.4f" sd) true (sd < 0.25);
        (* 2D materialization *)
        match Reconstruct.to_relation_2d r with
        | Some rel -> Alcotest.(check int) "two tuples" 2 (List.length (Relation.tuples rel))
        | None -> Alcotest.fail "expected relation");
  ]

let sat_tests =
  [
    t "exact volume equals cell decomposition" (fun () ->
        (* (x1 ∨ x2): cells T*, FT (in {F,M,T}^2) *)
        let v = Sat_encode.exact_volume ~nvars:2 [ [ 1; 2 ] ] in
        (* P(clause true) = 1 - P(x1 not T)·... careful: literal true iff coord in its slab.
           P = 1 - (3/4)·(3/4) = 7/16 *)
        Alcotest.(check string) "7/16" "7/16" (Q.to_string v));
    t "models and satisfiability" (fun () ->
        let cnf = [ [ 1; 2 ]; [ -1; 3 ]; [ -2; -3 ] ] in
        Alcotest.(check int) "models" 2 (Sat_encode.count_models ~nvars:3 cnf);
        Alcotest.(check bool) "sat" true (Sat_encode.is_satisfiable ~nvars:3 cnf);
        let unsat = [ [ 1 ]; [ -1 ] ] in
        Alcotest.(check bool) "unsat" false (Sat_encode.is_satisfiable ~nvars:1 unsat);
        Alcotest.(check string) "vol 0" "0" (Q.to_string (Sat_encode.exact_volume ~nvars:1 unsat)));
    t "exact volume consistent with Lasserre on tiny instance" (fun () ->
        let cnf = [ [ 1; 2 ] ] in
        let rel =
          Relation.inter
            (Sat_encode.clause_relation ~nvars:2 [ 1; 2 ])
            (Relation.unit_cube 2)
        in
        let lasserre = VE.volume_relation rel in
        Alcotest.(check string) "agree" (Q.to_string (Sat_encode.exact_volume ~nvars:2 cnf))
          (Q.to_string lasserre));
    t "random 3cnf shape" (fun () ->
        let rng = Rng.create 35 in
        let cnf = Sat_encode.random_3cnf rng ~nvars:6 ~clauses:10 in
        Alcotest.(check int) "10 clauses" 10 (List.length cnf);
        List.iter
          (fun clause ->
            Alcotest.(check int) "3 literals" 3 (List.length clause);
            let vars = List.map abs clause in
            Alcotest.(check int) "distinct" 3 (List.length (List.sort_uniq compare vars)))
          cnf);
    ts "clause observables sample inside the clause region" (fun () ->
        let rng = Rng.create 36 in
        match Sat_encode.clause_observables ~config:cfg rng ~nvars:3 [ [ 1; -2 ] ] with
        | [ clause ] ->
            let r = Sat_encode.clause_relation ~nvars:3 [ 1; -2 ] in
            for _ = 1 to 50 do
              let x = Observable.sample_exn clause rng params in
              Alcotest.(check bool) "in clause" true (Relation.mem_float ~slack:1e-6 r x)
            done
        | _ -> Alcotest.fail "expected one observable");
  ]


let bisection_tests =
  [
    ts "JVV bisection generator is roughly uniform on a triangle" (fun () ->
        let rng = Rng.create 60 in
        let tri = P.simplex 2 in
        let pts = Bisection_gen.sample_many rng ~volume_budget:150 ~bisections:4 tri ~n:30 in
        Alcotest.(check bool) "got samples" true (List.length pts >= 25);
        List.iter (fun p -> Alcotest.(check bool) "inside" true (P.mem ~slack:1e-6 tri p)) pts;
        (* mean should approach the centroid (1/3, 1/3) *)
        let n = float_of_int (List.length pts) in
        let mx = List.fold_left (fun acc p -> acc +. p.(0)) 0.0 pts /. n in
        Alcotest.(check bool) (Printf.sprintf "mean x=%.3f" mx) true (Float.abs (mx -. (1.0 /. 3.0)) < 0.13));
    t "empty body yields none" (fun () ->
        let empty = P.make ~dim:1 [| [| 1.0 |]; [| -1.0 |] |] [| -1.0; -1.0 |] in
        Alcotest.(check bool) "none" true
          (Option.is_none (Bisection_gen.sample (Rng.create 0) empty)));
    t "unbounded body yields none" (fun () ->
        let hs = P.make ~dim:2 [| [| 1.0; 0.0 |] |] [| 1.0 |] in
        Alcotest.(check bool) "none" true
          (Option.is_none (Bisection_gen.sample (Rng.create 0) hs)));
  ]


let failure_mode_tests =
  [
    ts "direct walk on a disconnected union never crosses (why Algorithm 1 exists)" (fun () ->
        (* The paper warns that a naive walk on a union fails: start in one
           component of two disjoint boxes and the lattice walk can never
           reach the other. *)
        let module W = Scdb_sampling.Walk in
        let module G = Scdb_sampling.Grid in
        let rng = Rng.create 80 in
        let r = Relation.union (Relation.box [| q 0 |] [| q 1 |]) (Relation.box [| q 3 |] [| q 4 |]) in
        let mem x = Relation.mem_float ~slack:1e-9 r x in
        let grid = G.make ~step:0.125 ~dim:1 in
        for _ = 1 to 30 do
          let p = W.sample rng ~grid ~mem ~start:[| 0.5 |] ~steps:2000 in
          Alcotest.(check bool) "stuck in first component" true (p.(0) <= 1.0 +. 1e-9)
        done;
        (* while the Union observable reaches both *)
        let cfg = Convex_obs.practical_config in
        let o1 = Option.get (Convex_obs.make ~config:cfg rng (Relation.box [| q 0 |] [| q 1 |])) in
        let o2 = Option.get (Convex_obs.make ~config:cfg rng (Relation.box [| q 3 |] [| q 4 |])) in
        let u = Union.union2 o1 o2 in
        let saw_right = ref false in
        for _ = 1 to 60 do
          if (Observable.sample_exn u rng params).(0) > 2.0 then saw_right := true
        done;
        Alcotest.(check bool) "union generator reaches both" true !saw_right);
  ]

let suites =
  [
    ("core.params", params_tests);
    ("core.convex", convex_tests);
    ("core.union", union_tests);
    ("core.inter_diff", inter_diff_tests);
    ("core.project", project_tests);
    ("core.fixed_dim", fixed_dim_tests);
    ("core.reconstruct", reconstruct_tests);
    ("core.sat", sat_tests);
    ("core.bisection", bisection_tests);
    ("core.failure_modes", failure_mode_tests);
  ]
