(* Bechamel micro-benchmarks of the primitives every experiment leans
   on: LP solves, exact volume recursion, Fourier–Motzkin steps, walk
   and hit-and-run step throughput, hull membership. *)

open Bechamel
module P = Scdb_polytope.Polytope
module VE = Scdb_polytope.Volume_exact
module FM = Scdb_qe.Fourier_motzkin
module HR = Scdb_sampling.Hit_and_run
module W = Scdb_sampling.Walk
module G = Scdb_sampling.Grid
module HL = Scdb_hull.Hull_lp
module Lp = Scdb_lp.Lp
module Rng = Scdb_rng.Rng

let tests () =
  let rng = Util.fresh_rng () in
  let cube4 = P.unit_cube 4 in
  let simplex3 = Relation.standard_simplex 3 in
  let simplex4_tuple = List.concat (Relation.tuples (Relation.standard_simplex 4)) in
  let grid = G.make ~step:0.05 ~dim:4 in
  let hull_pts = Array.init 40 (fun _ -> Rng.in_ball rng 3) in
  let hull = HL.of_points hull_pts in
  let bigint_a = Bigint.pow (Bigint.of_int 3) 400 in
  let bigint_b = Bigint.pow (Bigint.of_int 7) 300 in
  let small_a = Bigint.of_int 123_456_789 and small_b = Bigint.of_int 987_654_321 in
  let q_a = Rational.of_ints 355 113 and q_b = Rational.of_ints 113 355 in
  let chord_dir = Rng.unit_vector rng 4 in
  let chord_batch = P.Kernel.Batch.make cube4 [| Array.make 4 0.5 |] in
  P.Kernel.Batch.set_dir chord_batch 0 chord_dir;
  [
    Test.make ~name:"bigint.mul(400x300 digits)"
      (Staged.stage (fun () -> ignore (Bigint.mul bigint_a bigint_b)));
    Test.make ~name:"bigint.divmod"
      (Staged.stage (fun () -> ignore (Bigint.divmod bigint_a bigint_b)));
    Test.make ~name:"bigint.mul(small fast path)"
      (Staged.stage (fun () -> ignore (Bigint.mul small_a small_b)));
    Test.make ~name:"bigint.mul(small limb path)"
      (Staged.stage (fun () -> ignore (Bigint.Reference.mul small_a small_b)));
    Test.make ~name:"bigint.gcd(small fast path)"
      (Staged.stage (fun () -> ignore (Bigint.gcd small_a small_b)));
    Test.make ~name:"rational.add(small)"
      (Staged.stage (fun () -> ignore (Rational.add q_a q_b)));
    Test.make ~name:"rational.mul(small)"
      (Staged.stage (fun () -> ignore (Rational.mul q_a q_b)));
    Test.make ~name:"chord.line_intersection(cube4)"
      (Staged.stage (fun () -> ignore (P.line_intersection cube4 (Array.make 4 0.5) chord_dir)));
    Test.make ~name:"chord.kernel_incremental(cube4)"
      (Staged.stage (fun () -> P.Kernel.Batch.chord_all chord_batch));
    Test.make ~name:"lp.chebyshev(cube4)"
      (Staged.stage (fun () -> ignore (Lp.chebyshev ~a:cube4.P.a ~b:cube4.P.b)));
    Test.make ~name:"volume_exact(simplex3)"
      (Staged.stage (fun () -> ignore (VE.volume_relation simplex3)));
    Test.make ~name:"fm.eliminate_one_var(simplex4)"
      (Staged.stage (fun () -> ignore (FM.eliminate_var_tuple ~prune:false 3 simplex4_tuple)));
    Test.make ~name:"fm.eliminate_one_var+prune"
      (Staged.stage (fun () -> ignore (FM.eliminate_var_tuple ~prune:true 3 simplex4_tuple)));
    Test.make ~name:"walk.100steps(cube4,oracle)"
      (Staged.stage (fun () ->
           ignore
             (W.sample rng ~grid
                ~mem:(fun x -> P.mem cube4 x)
                ~start:(Array.make 4 0.5) ~steps:100)));
    Test.make ~name:"walk.100steps(cube4,kernel)"
      (Staged.stage (fun () ->
           ignore
             (W.sample_polytope_batch [| rng |] ~grid cube4
                ~starts:[| Array.make 4 0.5 |]
                ~steps:100)));
    Test.make ~name:"hit_and_run.100steps(cube4,naive)"
      (Staged.stage (fun () ->
           ignore
             (HR.sample rng ~chord:(HR.polytope_chord cube4) ~start:(Array.make 4 0.5) ~steps:100)));
    Test.make ~name:"hit_and_run.100steps(cube4,batchK1)"
      (Staged.stage (fun () ->
           ignore
             (HR.sample_polytope_batch [| rng |] cube4
                ~starts:[| Array.make 4 0.5 |]
                ~steps:100)));
    Test.make ~name:"hit_and_run.100steps(cube4,batchK4)"
      (Staged.stage
         (let rngs = Array.init 4 (fun _ -> Rng.split rng) in
          let starts = Array.init 4 (fun _ -> Array.make 4 0.5) in
          fun () -> ignore (HR.sample_polytope_batch rngs cube4 ~starts ~steps:100)));
    Test.make ~name:"hit_and_run.100steps(cube4,batchK16)"
      (Staged.stage
         (let rngs = Array.init 16 (fun _ -> Rng.split rng) in
          let starts = Array.init 16 (fun _ -> Array.make 4 0.5) in
          fun () -> ignore (HR.sample_polytope_batch rngs cube4 ~starts ~steps:100)));
    Test.make ~name:"hull_lp.mem(40pts,3d)"
      (Staged.stage (fun () -> ignore (HL.mem hull (Rng.in_ball rng 3))));
    Test.make ~name:"relation.mem_float(simplex3)"
      (Staged.stage (fun () -> ignore (Relation.mem_float simplex3 [| 0.2; 0.2; 0.2 |])));
  ]

let run ~fast =
  Util.header "PERF: bechamel micro-benchmarks of the substrate";
  let quota = Time.second (if fast then 0.25 else 1.0) in
  let cfg = Benchmark.cfg ~limit:2000 ~quota ~stabilize:false () in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let grouped = Test.make_grouped ~name:"spatialdb" (tests ()) in
  let raw = Benchmark.all cfg instances grouped in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let ns =
        match Analyze.OLS.estimates ols_result with
        | Some (t :: _) -> Printf.sprintf "%.1f" t
        | _ -> "-"
      in
      let r2 =
        match Analyze.OLS.r_square ols_result with
        | Some r -> Printf.sprintf "%.4f" r
        | None -> "-"
      in
      rows := [ name; ns; r2 ] :: !rows)
    results;
  let sorted = List.sort compare !rows in
  Util.table [ ("benchmark", 40); ("ns/run", 14); ("r^2", 8) ] sorted
