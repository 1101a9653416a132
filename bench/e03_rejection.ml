(* E3 — the introduction's 1/d^Θ(d) argument.

   Sampling a round body by rejection from its bounding cube needs
   exponentially many trials as the dimension grows: for the L1 ball
   (cross-polytope) of radius 1 inside [-1,1]^d the acceptance rate is
   exactly 1/d!.  The walk sampler's cost per sample is polynomial.
   This is the paper's motivation for the DFK machinery.

   The second table prices the three routes `vm-opt` chooses between on
   the standard d-simplex (centred on its centroid, as a rounded body
   is): box rejection at exact acceptance 1/d!, the hit-and-run walk,
   and the exact face-lattice sampler (Thm 3.1's exact observation in
   fixed dimension), each per draw in wall time. *)

module P = Scdb_polytope.Polytope
module Rej = Scdb_sampling.Rejection
module HR = Scdb_sampling.Hit_and_run
module Rng = Scdb_rng.Rng
module Pyr = Scdb_sampling.Pyramid

let factorial d = List.fold_left ( *. ) 1.0 (List.init d (fun i -> float_of_int (i + 1)))

let run_rejection ~fast =
  Util.header "E3: rejection sampling collapses with dimension (intro, 1/d^d)";
  let rng = Util.fresh_rng () in
  let budget = if fast then 40_000 else 400_000 in
  let dims = if fast then [ 2; 3; 4; 5; 6 ] else [ 2; 3; 4; 5; 6; 7; 8 ] in
  let rows =
    List.map
      (fun d ->
        let cross = P.cross_polytope d 1.0 in
        let mem x = P.mem ~slack:1e-12 cross x in
        let lo = Array.make d (-1.0) and hi = Array.make d 1.0 in
        let _, stats = Rej.sample_many rng ~lo ~hi ~mem ~count:budget ~max_attempts:budget in
        let rate = Rej.acceptance_rate stats in
        let predicted = 1.0 /. factorial d in
        (* walk cost: steps per sample x (2^d facet tests) is the honest
           membership cost; report the number of chord steps, which is
           the polynomial part the paper argues about *)
        let walk_steps = HR.default_steps ~dim:d in
        let samples_per_accept = if rate > 0.0 then 1.0 /. rate else Float.infinity in
        [
          string_of_int d;
          Util.fmt_e rate;
          Util.fmt_e predicted;
          (if Float.is_finite samples_per_accept then Printf.sprintf "%.0f" samples_per_accept else ">budget");
          string_of_int walk_steps;
        ])
      dims
  in
  Util.table
    [
      ("dim", 4);
      ("measured rate", 14);
      ("1/d! predicted", 14);
      ("trials/sample", 14);
      ("walk steps/sample", 18);
    ]
    rows;
  Printf.printf
    "Expectation: trials/sample grows like d! (super-exponential) while the\n\
     walk's per-sample step count grows polynomially — the paper's motivation.\n"

let per_draw_us ~draws f =
  let (), t = Util.time_it (fun () -> for _ = 1 to draws do ignore (f ()) done) in
  t *. 1e6 /. float_of_int draws

let simplex_routes ~fast =
  Util.subheader "per-draw cost of the three leaf routes on the d-simplex";
  let rng = Util.fresh_rng () in
  let dims = if fast then [ 2; 4; 6 ] else [ 2; 3; 4; 5; 6; 7; 8 ] in
  let draws = if fast then 2_000 else 20_000 in
  let rows =
    List.map
      (fun d ->
        let c = 1.0 /. float_of_int (d + 1) in
        let body = P.translate (Array.make d (-.c)) (P.simplex d) in
        let lo = Array.make d (-.c) and hi = Array.make d (1.0 -. c) in
        let mem x = P.mem body x in
        let rej () = Rej.sample rng ~lo ~hi ~mem ~max_attempts:1_000_000 in
        let steps = HR.default_steps ~dim:d in
        let start = Array.make d 0.0 in
        let walk () = HR.sample_polytope_batch [| rng |] body ~starts:[| start |] ~steps in
        let lattice, build_s = Util.time_it (fun () -> Pyr.build body) in
        let lattice = match lattice with Ok l -> l | Error e -> failwith (Pyr.decline_reason e) in
        let exact () = Pyr.sample lattice rng in
        let rej_draws = Stdlib.max 20 (draws / int_of_float (factorial d)) in
        [
          string_of_int d;
          Printf.sprintf "%.0f" (factorial d);
          Printf.sprintf "%.2f" (per_draw_us ~draws:rej_draws rej);
          string_of_int steps;
          Printf.sprintf "%.2f" (per_draw_us ~draws walk);
          string_of_int (Pyr.faces lattice);
          Printf.sprintf "%.2f" (build_s *. 1e3);
          Printf.sprintf "%.2f" (per_draw_us ~draws exact);
        ])
      dims
  in
  Util.table
    [
      ("dim", 4);
      ("box trials", 11);
      ("box us", 9);
      ("walk steps", 11);
      ("walk us", 9);
      ("faces", 6);
      ("build ms", 9);
      ("exact us", 9);
    ]
    rows;
  Printf.printf
    "Expectation: the box grows like d!, the walk like its step count, and the\n\
     exact route stays near a microsecond a draw after a build of a few ms.\n"

let run ~fast =
  run_rejection ~fast;
  simplex_routes ~fast
