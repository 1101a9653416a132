(* The Jerrum–Valiant–Vazirani connection the paper builds on:
   approximate counting and almost uniform generation are equivalent for
   self-reducible problems.  For convex bodies this works geometrically:

   - generation -> counting is the multi-phase DFK volume estimator
     (sample the bigger body, count hits in the smaller);
   - counting -> generation is coordinate bisection: choose each
     half-slab with probability proportional to its estimated volume.

   This example runs both directions on the same triangle and compares
   the resulting samplers and estimators.

   Run with:  dune exec examples/jvv_reduction.exe *)

module P = Scdb_polytope.Polytope
module Vol = Scdb_sampling.Volume
module Welford = Scdb_diag.Diag.Welford
module Rng = Scdb_rng.Rng

let () =
  let rng = Rng.create 99 in
  let tri = P.simplex 2 in

  Printf.printf "Body: the triangle {x >= 0, y >= 0, x + y <= 1}, area 1/2.\n\n";

  (* Direction 1: generation -> counting (the DFK estimator). *)
  let acc = Welford.create () in
  for _ = 1 to 8 do
    match Vol.estimate rng ~budget:(Vol.Practical 1500) tri with
    | Some r -> Welford.add acc r.Vol.volume
    | None -> failwith "estimation failed"
  done;
  let mean = Welford.mean acc and count = Welford.count acc in
  (* Normal-approximation 95% interval: 1.96 standard errors. *)
  let half = 1.96 *. Welford.std acc /. sqrt (float_of_int count) in
  Printf.printf "generation->counting: volume = %.4f (95%% CI [%.4f, %.4f]) over %d runs\n"
    mean (mean -. half) (mean +. half) count;

  (* Direction 2: counting -> generation (JVV bisection). *)
  let n = 300 in
  let pts = Bisection_gen.sample_many rng ~volume_budget:200 ~bisections:5 tri ~n in
  let got = List.length pts in
  let mean_x = List.fold_left (fun a p -> a +. p.(0)) 0.0 pts /. float_of_int got in
  let mean_y = List.fold_left (fun a p -> a +. p.(1)) 0.0 pts /. float_of_int got in
  Printf.printf "counting->generation: %d bisection samples, mean (%.3f, %.3f) vs centroid (0.333, 0.333)\n"
    got mean_x mean_y;

  (* Uniformity check: thirds of the triangle by x should get mass
     proportional to their areas (5/9, 3/9, 1/9 for x-bands of width 1/3). *)
  let bands = Array.make 3 0 in
  List.iter
    (fun p ->
      let b = Stdlib.min 2 (int_of_float (p.(0) *. 3.0)) in
      bands.(b) <- bands.(b) + 1)
    pts;
  Printf.printf "x-band occupancy: %.3f / %.3f / %.3f (expected 0.556 / 0.333 / 0.111)\n"
    (float_of_int bands.(0) /. float_of_int got)
    (float_of_int bands.(1) /. float_of_int got)
    (float_of_int bands.(2) /. float_of_int got);

  Printf.printf
    "\nThe walk-based generator is the efficient direction; the bisection\n\
     generator pays one volume estimation per halving and exists to make\n\
     the JVV equivalence concrete.\n"
