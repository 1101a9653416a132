(* Statistical and determinism tests for the PRNG. *)

module Rng = Scdb_rng.Rng

let t name f = Alcotest.test_case name `Quick f

(* Pearson's statistic of [counts] (summing to [n]) against equal
   cell probabilities. *)
let chi_square_uniform counts n =
  let expected = float_of_int n /. float_of_int (Array.length counts) in
  Array.fold_left
    (fun acc c -> acc +. (((float_of_int c -. expected) ** 2.0) /. expected))
    0.0 counts

let tests =
  [
    t "deterministic per seed" (fun () ->
        let a = Rng.create 99 and b = Rng.create 99 in
        for _ = 1 to 100 do
          Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
        done);
    t "different seeds differ" (fun () ->
        let a = Rng.create 1 and b = Rng.create 2 in
        let same = ref 0 in
        for _ = 1 to 64 do
          if Rng.bits64 a = Rng.bits64 b then incr same
        done;
        Alcotest.(check bool) "streams differ" true (!same < 4));
    t "split independence" (fun () ->
        let parent = Rng.create 7 in
        let child = Rng.split parent in
        let same = ref 0 in
        for _ = 1 to 64 do
          if Rng.bits64 parent = Rng.bits64 child then incr same
        done;
        Alcotest.(check bool) "independent" true (!same < 4));
    t "draw counter counts every primitive draw" (fun () ->
        let g = Rng.create 3 in
        Alcotest.(check int) "fresh" 0 (Rng.draw_count g);
        ignore (Rng.bits64 g);
        ignore (Rng.float g);
        let before = Rng.draw_count g in
        Alcotest.(check bool) "counted" true (before >= 2);
        ignore (Rng.unit_vector g 4);
        Alcotest.(check bool) "derived draws count too" true (Rng.draw_count g > before));
    t "float in range with correct mean" (fun () ->
        let rng = Rng.create 11 in
        let n = 50_000 in
        let sum = ref 0.0 in
        for _ = 1 to n do
          let x = Rng.float rng in
          Alcotest.(check bool) "range" true (x >= 0.0 && x < 1.0);
          sum := !sum +. x
        done;
        Alcotest.(check (float 0.01)) "mean" 0.5 (!sum /. float_of_int n));
    t "int uniform chi-square" (fun () ->
        let rng = Rng.create 12 in
        let buckets = Array.make 10 0 in
        let n = 50_000 in
        for _ = 1 to n do
          let k = Rng.int rng 10 in
          buckets.(k) <- buckets.(k) + 1
        done;
        let chi2 = chi_square_uniform buckets n in
        (* 9 dof: chi2 < 27.9 at the 0.1% level *)
        Alcotest.(check bool) (Printf.sprintf "chi2=%.1f" chi2) true (chi2 < 27.9));
    t "int rejects non-positive bound" (fun () ->
        Alcotest.check_raises "zero" (Invalid_argument "Rng.int: non-positive bound") (fun () ->
            ignore (Rng.int (Rng.create 0) 0)));
    t "gaussian moments" (fun () ->
        let rng = Rng.create 13 in
        let n = 50_000 in
        let sum = ref 0.0 and sum2 = ref 0.0 in
        for _ = 1 to n do
          let x = Rng.gaussian rng in
          sum := !sum +. x;
          sum2 := !sum2 +. (x *. x)
        done;
        Alcotest.(check (float 0.03)) "mean" 0.0 (!sum /. float_of_int n);
        Alcotest.(check (float 0.05)) "variance" 1.0 (!sum2 /. float_of_int n));
    t "unit_vector has norm 1" (fun () ->
        let rng = Rng.create 14 in
        for d = 1 to 6 do
          let v = Rng.unit_vector rng d in
          Alcotest.(check (float 1e-9)) "norm" 1.0 (Vec.norm v)
        done);
    t "gaussian_fast moments" (fun () ->
        let rng = Rng.create 16 in
        let n = 100_000 in
        let sum = ref 0.0 and sum2 = ref 0.0 in
        for _ = 1 to n do
          let x = Rng.gaussian_fast rng in
          sum := !sum +. x;
          sum2 := !sum2 +. (x *. x)
        done;
        Alcotest.(check (float 0.03)) "mean" 0.0 (!sum /. float_of_int n);
        Alcotest.(check (float 0.05)) "variance" 1.0 (!sum2 /. float_of_int n));
    t "gaussian_fast chi-square against normal deciles" (fun () ->
        (* Bin into 10 equal-probability cells using the standard
           normal deciles; Pearson's statistic at 9 dof. *)
        let deciles =
          [| -1.2815515655; -0.8416212336; -0.5244005127; -0.2533471031; 0.0;
             0.2533471031; 0.5244005127; 0.8416212336; 1.2815515655 |]
        in
        let bin x =
          let i = ref 0 in
          while !i < 9 && x >= deciles.(!i) do
            incr i
          done;
          !i
        in
        let rng = Rng.create 17 in
        let n = 100_000 in
        let buckets = Array.make 10 0 in
        for _ = 1 to n do
          let k = bin (Rng.gaussian_fast rng) in
          buckets.(k) <- buckets.(k) + 1
        done;
        let chi2 = chi_square_uniform buckets n in
        (* 9 dof: chi2 < 27.9 at the 0.1% level *)
        Alcotest.(check bool) (Printf.sprintf "chi2=%.1f" chi2) true (chi2 < 27.9));
    t "gaussian_fast reaches the ziggurat tail" (fun () ->
        (* P(|x| > 3.4426) ≈ 5.75e-4: 200k draws see the tail branch
           ~115 times in expectation; seeing none would mean the tail
           sampler is dead. *)
        let rng = Rng.create 18 in
        let tail = ref 0 in
        for _ = 1 to 200_000 do
          if Float.abs (Rng.gaussian_fast rng) > 3.442619855899 then incr tail
        done;
        Alcotest.(check bool)
          (Printf.sprintf "tail hits = %d" !tail)
          true
          (!tail > 50 && !tail < 250));
    t "unit_vector_into_fast has norm 1 and is deterministic" (fun () ->
        let a = Rng.create 19 and b = Rng.create 19 in
        let u = Vec.create 5 and v = Vec.create 5 in
        Rng.unit_vector_into_fast a u;
        Rng.unit_vector_into_fast b v;
        Alcotest.(check (float 1e-9)) "norm" 1.0 (Vec.norm u);
        Alcotest.(check bool) "same stream, same vector" true (u = v));
    t "d=2 fast directions: uniform over 16 angle sectors" (fun () ->
        let rng = Rng.create 22 in
        let n = 64_000 and sectors = 16 in
        let buf = Array.make 4 0.0 in
        let counts = Array.make sectors 0 in
        for _ = 1 to n do
          Rng.unit_vector_slice_fast rng buf 1 2;
          let a = Float.atan2 buf.(2) buf.(1) +. Float.pi in
          let s = min (sectors - 1) (int_of_float (a /. (2.0 *. Float.pi) *. float_of_int sectors)) in
          counts.(s) <- counts.(s) + 1
        done;
        let chi2 = chi_square_uniform counts n in
        (* 15 dof: chi2 < 37.7 at the 0.1% level *)
        Alcotest.(check bool) (Printf.sprintf "chi2=%.1f" chi2) true (chi2 < 37.7));
    t "d=3 fast directions: uniform over 8 sign orthants" (fun () ->
        let rng = Rng.create 23 in
        let n = 64_000 in
        let v = Array.make 3 0.0 in
        let counts = Array.make 8 0 in
        for _ = 1 to n do
          Rng.unit_vector_slice_fast rng v 0 3;
          let o = ref 0 in
          Array.iteri (fun i x -> if x < 0.0 then o := !o lor (1 lsl i)) v;
          counts.(!o) <- counts.(!o) + 1
        done;
        let chi2 = chi_square_uniform counts n in
        (* 7 dof: chi2 < 24.3 at the 0.1% level *)
        Alcotest.(check bool) (Printf.sprintf "chi2=%.1f" chi2) true (chi2 < 24.3));
    t "in_ball_into_fast stays inside the ball" (fun () ->
        let rng = Rng.create 21 in
        let v = Vec.create 4 in
        for _ = 1 to 1_000 do
          Rng.in_ball_into_fast rng v;
          Alcotest.(check bool) "inside" true (Vec.norm v <= 1.0 +. 1e-9)
        done);
    t "in_ball stays inside and fills shells" (fun () ->
        let rng = Rng.create 15 in
        let n = 20_000 in
        let inner = ref 0 in
        for _ = 1 to n do
          let v = Rng.in_ball rng 2 in
          Alcotest.(check bool) "inside" true (Vec.norm v <= 1.0 +. 1e-9);
          if Vec.norm v <= 0.5 then incr inner
        done;
        (* P(norm <= 1/2) = 1/4 in dimension 2 *)
        Alcotest.(check (float 0.02)) "shell" 0.25 (float_of_int !inner /. float_of_int n));
    t "categorical respects weights" (fun () ->
        let rng = Rng.create 16 in
        let counts = Array.make 3 0 in
        let n = 30_000 in
        for _ = 1 to n do
          let k = Rng.categorical rng [| 1.0; 2.0; 7.0 |] in
          counts.(k) <- counts.(k) + 1
        done;
        Alcotest.(check (float 0.02)) "w0" 0.1 (float_of_int counts.(0) /. float_of_int n);
        Alcotest.(check (float 0.02)) "w1" 0.2 (float_of_int counts.(1) /. float_of_int n));
    t "categorical rejects zero weights" (fun () ->
        Alcotest.check_raises "zero" (Invalid_argument "Rng.categorical: zero total weight")
          (fun () -> ignore (Rng.categorical (Rng.create 0) [| 0.0; 0.0 |])));
    t "categorical never selects a zero-weight tail" (fun () ->
        (* The cumulative scan can run off the end when x rounds up to
           the total; the fallback must land on a positive weight, not
           blindly on the last index. *)
        let rng = Rng.create 31 in
        for _ = 1 to 20_000 do
          Alcotest.(check int) "only index 0 has mass" 0
            (Rng.categorical rng [| 1.0; 0.0 |])
        done);
    t "categorical subnormal totals stay on positive weights" (fun () ->
        (* [x = float·total] rounds to the total itself for most draws
           when the total is the smallest subnormal, so the scan falls
           through on nearly every call. *)
        let rng = Rng.create 32 in
        for _ = 1 to 1_000 do
          Alcotest.(check int) "subnormal mass at index 0" 0
            (Rng.categorical rng [| 5e-324; 0.0 |])
        done);
    t "categorical draws exactly one float per call" (fun () ->
        let rng = Rng.create 33 in
        let before = Rng.draw_count rng in
        ignore (Rng.categorical rng [| 1.0; 0.0 |]);
        Alcotest.(check int) "one draw" (before + 1) (Rng.draw_count rng));
    t "shuffle is a permutation" (fun () ->
        let rng = Rng.create 17 in
        let a = Array.init 50 Fun.id in
        Rng.shuffle rng a;
        let sorted = Array.copy a in
        Array.sort compare sorted;
        Alcotest.(check bool) "permutation" true (sorted = Array.init 50 Fun.id));
    t "gaussian matches the recursive polar method bit-for-bit" (fun () ->
        (* The closure-based form [Rng.gaussian] had before it became a
           loop: same draws, same arithmetic. *)
        let recursive t =
          let rec go () =
            let u = Rng.uniform t (-1.0) 1.0 and v = Rng.uniform t (-1.0) 1.0 in
            let s = (u *. u) +. (v *. v) in
            if s >= 1.0 || s = 0.0 then go () else u *. sqrt (-2.0 *. log s /. s)
          in
          go ()
        in
        List.iter
          (fun seed ->
            let a = Rng.create seed and b = Rng.create seed in
            for i = 1 to 100_000 do
              let x = recursive a and y = Rng.gaussian b in
              if Int64.bits_of_float x <> Int64.bits_of_float y then
                Alcotest.failf "seed %d, deviate %d: %h <> %h" seed i x y
            done;
            Alcotest.(check int) (Printf.sprintf "seed %d draws" seed) (Rng.draw_count a)
              (Rng.draw_count b))
          [ 1; 42; 2024 ]);
    t "unit_vector_slice_fast allocates nothing" (fun () ->
        (* The walks' direction fill, into a chain slot past offset 0 as
           the batched kernels use it. *)
        List.iter
          (fun d ->
            let rng = Rng.create 5 and buf = Array.make (3 * d) 0.0 in
            let iters = 10_000 in
            for _ = 1 to 100 do
              Rng.unit_vector_slice_fast rng buf d d
            done;
            let w0 = Gc.minor_words () in
            for _ = 1 to iters do
              Rng.unit_vector_slice_fast rng buf d d
            done;
            let dw = Gc.minor_words () -. w0 in
            Alcotest.(check bool)
              (Printf.sprintf "d=%d: %.0f minor words over %d draws" d dw iters)
              true (dw < 256.0))
          [ 2; 5 ]);
  ]

let suites = [ ("rng", tests) ]
