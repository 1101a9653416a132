(* Chi-square uniformity audits: statistical tripwires for sampler
   refactors.

   Each test draws a fixed-seed batch of samples, bins them on a coarse
   grid of equal-measure cells and checks Pearson's statistic
   Σ (O−E)²/E against the 99.9% quantile of the χ² distribution with
   (cells − 1) degrees of freedom.  A correct sampler fails a given
   seed with probability ≈ 1e-3; a sampler whose stationary law drifts
   from uniform (broken chord arithmetic, biased lattice moves, wrong
   Karp–Luby acceptance) blows the statistic up by orders of
   magnitude.  The batches are deterministic given the seed, so a red
   run is always reproducible. *)

module P = Scdb_polytope.Polytope
module HR = Scdb_sampling.Hit_and_run
module W = Scdb_sampling.Walk
module G = Scdb_sampling.Grid
module Rng = Scdb_rng.Rng
open Scdb_core

let ts name f = Alcotest.test_case name `Slow f
let q = Rational.of_int

(* 99.9% quantiles of the chi-square distribution. *)
let chi2_999_df7 = 24.322
let chi2_999_df15 = 37.697

let chi_square ~observed ~expected =
  let s = ref 0.0 in
  Array.iteri
    (fun i o ->
      let e = expected.(i) in
      let d = float_of_int o -. e in
      s := !s +. (d *. d /. e))
    observed;
  !s

(* Bin a point of [0,1]² onto a k×k grid. *)
let cell_of ~k x =
  let clamp v = Stdlib.min (k - 1) (Stdlib.max 0 (int_of_float (v *. float_of_int k))) in
  (clamp x.(0) * k) + clamp x.(1)

let hit_and_run_uniformity () =
  let k = 4 in
  let n = 4_000 in
  let square = P.box [| 0.0; 0.0 |] [| 1.0; 1.0 |] in
  let rng = Rng.create 20260806 in
  let centre = [| 0.5; 0.5 |] in
  let observed = Array.make (k * k) 0 in
  for _ = 1 to n do
    let p = (HR.sample_polytope_batch [| rng |] square ~starts:[| centre |] ~steps:64).(0) in
    let c = cell_of ~k p in
    observed.(c) <- observed.(c) + 1
  done;
  let expected = Array.make (k * k) (float_of_int n /. float_of_int (k * k)) in
  let stat = chi_square ~observed ~expected in
  Alcotest.(check bool)
    (Printf.sprintf "hit-and-run chi2 = %.2f < %.3f (df 15)" stat chi2_999_df15)
    true (stat < chi2_999_df15)

let lattice_walk_uniformity () =
  (* The DFK grid walk on the square, binned the same way.  The walk
     lives on lattice vertices, so cells are defined by vertex counts:
     use a grid step that divides the cell edge exactly and count
     vertices per cell as the expected measure. *)
  let k = 4 in
  let n = 3_000 in
  let grid = G.make ~step:0.0625 ~dim:2 in
  (* vertices with index 0..16 per axis lie in [0,1]; the walk is
     restricted to the open square via a strict membership test so each
     axis has 15 interior indices 1..15, hence odd counts per cell. *)
  let square = P.box [| 0.0; 0.0 |] [| 1.0; 1.0 |] in
  let mem x = P.mem square x && x.(0) > 0.0 && x.(0) < 1.0 && x.(1) > 0.0 && x.(1) < 1.0 in
  let rng = Rng.create 42 in
  let observed = Array.make (k * k) 0 in
  let start = [| 0.5; 0.5 |] in
  for _ = 1 to n do
    let p = W.sample rng ~grid ~mem ~start ~steps:600 in
    let c = cell_of ~k p in
    observed.(c) <- observed.(c) + 1
  done;
  (* Count lattice vertices per cell to get exact expected masses. *)
  let counts = Array.make (k * k) 0 in
  for i = 1 to 15 do
    for j = 1 to 15 do
      let c = cell_of ~k [| float_of_int i *. 0.0625; float_of_int j *. 0.0625 |] in
      counts.(c) <- counts.(c) + 1
    done
  done;
  let total = float_of_int (Array.fold_left ( + ) 0 counts) in
  let expected = Array.map (fun c -> float_of_int n *. float_of_int c /. total) counts in
  let stat = chi_square ~observed ~expected in
  Alcotest.(check bool)
    (Printf.sprintf "lattice walk chi2 = %.2f < %.3f (df 15)" stat chi2_999_df15)
    true (stat < chi2_999_df15)

(* Batched kernel at K chains: pool the K per-chain endpoints of many
   short batches and bin them like the single-chain audit.  Every K
   draws ziggurat directions; K=1 is the interpreter's walk, K>1 the
   register-blocked chord pass. *)
let batched_uniformity ~chains () =
  let k = 4 in
  let n = 4_000 (* total retained points, across chains *) in
  let batches = n / chains in
  let square = P.box [| 0.0; 0.0 |] [| 1.0; 1.0 |] in
  let rng = Rng.create (977 + chains) in
  let starts = Array.init chains (fun _ -> [| 0.5; 0.5 |]) in
  let observed = Array.make (k * k) 0 in
  for _ = 1 to batches do
    let rngs = Array.init chains (fun _ -> Rng.split rng) in
    let pts = HR.sample_polytope_batch rngs square ~starts ~steps:64 in
    Array.iter
      (fun p ->
        let c = cell_of ~k p in
        observed.(c) <- observed.(c) + 1)
      pts
  done;
  let total = batches * chains in
  let expected = Array.make (k * k) (float_of_int total /. float_of_int (k * k)) in
  let stat = chi_square ~observed ~expected in
  Alcotest.(check bool)
    (Printf.sprintf "batched K=%d chi2 = %.2f < %.3f (df 15)" chains stat chi2_999_df15)
    true (stat < chi2_999_df15)

let batched_ball_walk_uniformity () =
  let module BW = Scdb_sampling.Ball_walk in
  let k = 4 in
  let chains = 4 in
  let batches = 900 in
  let square = P.box [| 0.0; 0.0 |] [| 1.0; 1.0 |] in
  let rng = Rng.create 31337 in
  let starts = Array.init chains (fun _ -> [| 0.5; 0.5 |]) in
  let observed = Array.make (k * k) 0 in
  for _ = 1 to batches do
    let rngs = Array.init chains (fun _ -> Rng.split rng) in
    let pts = BW.sample_polytope_batch rngs square ~starts ~steps:220 ~radius:0.35 () in
    Array.iter
      (fun p ->
        let c = cell_of ~k p in
        observed.(c) <- observed.(c) + 1)
      pts
  done;
  let total = batches * chains in
  let expected = Array.make (k * k) (float_of_int total /. float_of_int (k * k)) in
  let stat = chi_square ~observed ~expected in
  Alcotest.(check bool)
    (Printf.sprintf "batched ball walk chi2 = %.2f < %.3f (df 15)" stat chi2_999_df15)
    true (stat < chi2_999_df15)

let union_uniformity () =
  (* Two disjoint unit squares: Algorithm 1 must put half the mass in
     each and be uniform within each.  8 equal-area cells: box × 2×2
     quadrants. *)
  let n = 2_000 in
  let rng = Rng.create 77 in
  let cfg = Convex_obs.practical_config in
  let a = Option.get (Convex_obs.make ~config:cfg rng (Relation.box [| q 0; q 0 |] [| q 1; q 1 |])) in
  let b = Option.get (Convex_obs.make ~config:cfg rng (Relation.box [| q 2; q 0 |] [| q 3; q 1 |])) in
  let u = Union.union2 a b in
  let params = Params.make ~gamma:0.05 ~eps:0.15 ~delta:0.1 () in
  let observed = Array.make 8 0 in
  for _ = 1 to n do
    let x = Observable.sample_exn u rng params in
    let box = if x.(0) >= 1.5 then 1 else 0 in
    let lx = if box = 0 then x.(0) else x.(0) -. 2.0 in
    let qx = if lx >= 0.5 then 1 else 0 and qy = if x.(1) >= 0.5 then 1 else 0 in
    let c = (box * 4) + (qx * 2) + qy in
    observed.(c) <- observed.(c) + 1
  done;
  let expected = Array.make 8 (float_of_int n /. 8.0) in
  let stat = chi_square ~observed ~expected in
  Alcotest.(check bool)
    (Printf.sprintf "union chi2 = %.2f < %.3f (df 7)" stat chi2_999_df7)
    true (stat < chi2_999_df7)

let suites =
  [
    ( "uniformity.chi_square",
      [
        ts "hit-and-run on the unit square" hit_and_run_uniformity;
        ts "lattice walk on the unit square" lattice_walk_uniformity;
        ts "batched hit-and-run, K=1 (one chain)" (batched_uniformity ~chains:1);
        ts "batched hit-and-run, K=4 (four chains)" (batched_uniformity ~chains:4);
        ts "batched hit-and-run, K=16 (sixteen chains)" (batched_uniformity ~chains:16);
        ts "batched ball walk, K=4" batched_ball_walk_uniformity;
        ts "2-relation union (Algorithm 1)" union_uniformity;
      ] );
  ]
