(* Tests for float vectors/matrices, exact matrices and affine maps. *)

module Rng = Scdb_rng.Rng

let t name f = Alcotest.test_case name `Quick f

let qt ?(count = 200) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

let feq = Alcotest.(check (float 1e-9))

let vec_tests =
  [
    t "dot and norm" (fun () ->
        feq "dot" 11.0 (Vec.dot [| 1.; 2. |] [| 3.; 4. |]);
        feq "norm" 5.0 (Vec.norm [| 3.; 4. |]);
        feq "norm_inf" 4.0 (Vec.norm_inf [| 3.; -4. |]));
    t "basis" (fun () ->
        Alcotest.(check bool) "e1" true (Vec.equal_eps 0.0 [| 0.; 1.; 0. |] (Vec.basis 3 1)));
    t "normalize zero raises" (fun () ->
        Alcotest.check_raises "zero" (Invalid_argument "Vec.normalize: zero vector") (fun () ->
            ignore (Vec.normalize [| 0.; 0. |])));
    t "dimension mismatch raises" (fun () ->
        Alcotest.check_raises "mismatch" (Invalid_argument "Vec: dimension mismatch") (fun () ->
            ignore (Vec.add [| 1. |] [| 1.; 2. |])));
    t "project_out and keep" (fun () ->
        let v = [| 10.; 20.; 30.; 40. |] in
        Alcotest.(check bool) "drop" true (Vec.equal_eps 0.0 [| 10.; 30. |] (Vec.project_out v [ 1; 3 ]));
        Alcotest.(check bool) "keep" true (Vec.equal_eps 0.0 [| 40.; 20. |] (Vec.keep v [ 3; 1 ])));
    t "lerp endpoints" (fun () ->
        let a = [| 0.; 1. |] and b = [| 2.; 5. |] in
        Alcotest.(check bool) "t=0" true (Vec.equal_eps 1e-12 a (Vec.lerp a b 0.0));
        Alcotest.(check bool) "t=1" true (Vec.equal_eps 1e-12 b (Vec.lerp a b 1.0)));
  ]

let random_mat rng n =
  Mat.init n n (fun _ _ -> Rng.uniform rng (-3.0) 3.0)

let mat_tests =
  [
    t "identity multiplication" (fun () ->
        let rng = Rng.create 1 in
        let a = random_mat rng 4 in
        Alcotest.(check bool) "aI=a" true (Mat.equal_eps 1e-12 a (Mat.mul a (Mat.identity 4))));
    t "lu solve random systems" (fun () ->
        let rng = Rng.create 2 in
        for _ = 1 to 50 do
          let n = 1 + Rng.int rng 6 in
          let a = random_mat rng n in
          let x = Vec.init n (fun _ -> Rng.uniform rng (-2.0) 2.0) in
          let b = Mat.mul_vec a x in
          match Mat.solve a b with
          | Some x' -> Alcotest.(check bool) "solution" true (Vec.equal_eps 1e-6 x x')
          | None -> () (* singular draw: legitimately skipped *)
        done);
    t "inverse" (fun () ->
        let rng = Rng.create 3 in
        let a = random_mat rng 5 in
        match Mat.inv a with
        | Some ai ->
            Alcotest.(check bool) "a*ai=I" true (Mat.equal_eps 1e-6 (Mat.identity 5) (Mat.mul a ai))
        | None -> Alcotest.fail "unexpected singular");
    t "det of singular is 0" (fun () ->
        let a = [| [| 1.; 2. |]; [| 2.; 4. |] |] in
        feq "det" 0.0 (Mat.det a);
        Alcotest.(check bool) "inv none" true (Option.is_none (Mat.inv a)));
    t "det multiplicative" (fun () ->
        let rng = Rng.create 4 in
        let a = random_mat rng 4 and b = random_mat rng 4 in
        Alcotest.(check (float 1e-6)) "det(ab)" (Mat.det a *. Mat.det b) (Mat.det (Mat.mul a b)));
    t "cholesky reconstructs" (fun () ->
        let rng = Rng.create 5 in
        let m = random_mat rng 4 in
        (* m mᵀ + I is symmetric positive definite *)
        let spd = Mat.add (Mat.mul m (Mat.transpose m)) (Mat.identity 4) in
        match Mat.cholesky spd with
        | Some l ->
            Alcotest.(check bool) "llᵀ" true (Mat.equal_eps 1e-8 spd (Mat.mul l (Mat.transpose l)))
        | None -> Alcotest.fail "cholesky failed on SPD");
    t "cholesky rejects non-PD" (fun () ->
        Alcotest.(check bool) "none" true
          (Option.is_none (Mat.cholesky [| [| 1.; 2. |]; [| 2.; 1. |] |])));
    t "triangular solves" (fun () ->
        let l = [| [| 2.; 0. |]; [| 1.; 3. |] |] in
        let x = Mat.solve_lower_triangular l [| 4.; 11. |] in
        Alcotest.(check bool) "lower" true (Vec.equal_eps 1e-12 [| 2.; 3. |] x);
        let u = Mat.transpose l in
        let y = Mat.solve_upper_triangular u [| 7.; 9. |] in
        Alcotest.(check bool) "upper" true (Vec.equal_eps 1e-12 [| 2.; 3. |] y));
  ]

let q = Rational.of_int

let exact_tests =
  [
    t "det exact" (fun () ->
        let m = [| [| q 2; q 0 |]; [| q 1; q 3 |] |] in
        Alcotest.(check string) "det" "6" (Rational.to_string (Exact_mat.det m)));
    qt "float det agrees with exact det" (QCheck.make QCheck.Gen.(int_range 0 10_000)) (fun seed ->
        let rng = Rng.create seed in
        let n = 1 + Rng.int rng 4 in
        let ints = Array.init n (fun _ -> Array.init n (fun _ -> Rng.int rng 9 - 4)) in
        let fm = Array.map (Array.map float_of_int) ints in
        let em = Array.map (Array.map q) ints in
        Float.abs (Mat.det fm -. Rational.to_float (Exact_mat.det em)) < 1e-6);
  ]

let affine_tests =
  [
    t "apply/inverse round trip" (fun () ->
        let rng = Rng.create 6 in
        let a = random_mat rng 3 in
        match Affine.make a [| 1.; -2.; 0.5 |] with
        | None -> Alcotest.fail "singular draw"
        | Some f ->
            let x = [| 0.3; 0.7; -1.1 |] in
            Alcotest.(check bool) "roundtrip" true
              (Vec.equal_eps 1e-8 x (Affine.apply_inverse f (Affine.apply f x))));
    t "compose applies right-to-left" (fun () ->
        let f = Affine.translation [| 1.; 0. |] in
        let g = Option.get (Affine.scaling [| 2.; 2. |]) in
        let h = Affine.compose f g in
        Alcotest.(check bool) "fg" true (Vec.equal_eps 1e-12 [| 3.; 2. |] (Affine.apply h [| 1.; 1. |])));
    t "volume scale" (fun () ->
        let f = Option.get (Affine.scaling [| 2.; 3. |]) in
        feq "scale" 6.0 (Affine.volume_scale f);
        feq "inv scale" (1.0 /. 6.0) (Affine.volume_scale (Affine.inverse f)));
    t "singular scaling rejected" (fun () ->
        Alcotest.(check bool) "none" true (Option.is_none (Affine.scaling [| 1.; 0. |])));
  ]

let suites =
  [
    ("linalg.vec", vec_tests);
    ("linalg.mat", mat_tests);
    ("linalg.exact", exact_tests);
    ("linalg.affine", affine_tests);
  ]
