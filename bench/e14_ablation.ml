(* E14 — ablations of the pipeline's design choices (DESIGN.md §6),
   plus the §5 extension to polynomial constraints via membership
   oracles.

   (a) Well-rounding: without the isotropic whitening step the phase
       count explodes on elongated bodies and accuracy collapses — the
       paper's reason for assuming well-rounded position.
   (b) Walk length: error vs mixing steps (under-mixed walks are biased
       towards the start).
   (c) Sampler choice: the paper's lattice walk vs continuous
       hit-and-run (same stationary law; different constants).
   (d) §5: an ellipsoid (convex FO+POLY body) handled purely through
       its membership oracle. *)

module P = Scdb_polytope.Polytope
module Vol = Scdb_sampling.Volume
module OB = Scdb_sampling.Oracle_body
module Rng = Scdb_rng.Rng

let run ~fast =
  Util.header "E14: ablations + sec 5 polynomial-constraint extension";
  let rng = Util.fresh_rng () in
  let budget = if fast then 800 else 3000 in

  Util.subheader "(a) rounding rounds on an elongated box (truth 5.0)";
  let elongated = P.box [| 0.0; 0.0 |] [| 50.0; 0.1 |] in
  let rows =
    List.map
      (fun rounds ->
        match Vol.estimate rng ~budget:(Vol.Practical budget) ~rounding_rounds:rounds elongated with
        | Some r ->
            [
              string_of_int rounds;
              Util.fmt_f ~digits:3 r.Vol.volume;
              Util.fmt_f (Util.rel_err ~truth:5.0 r.Vol.volume);
              string_of_int r.Vol.phases;
              Util.fmt_f ~digits:1 r.Vol.rounding_ratio;
            ]
        | None -> [ string_of_int rounds; "fail"; "-"; "-"; "-" ])
      [ 0; 1; 2 ]
  in
  Util.table
    [ ("rounds", 7); ("estimate", 9); ("rel err", 8); ("phases", 7); ("aspect", 7) ]
    rows;

  Util.subheader "(b) walk length vs accuracy (cube4, truth 1.0)";
  let rows =
    List.map
      (fun steps ->
        match Vol.estimate rng ~budget:(Vol.Practical budget) ~walk_steps:steps (P.unit_cube 4) with
        | Some r -> [ string_of_int steps; Util.fmt_f ~digits:3 r.Vol.volume; Util.fmt_f (Util.rel_err ~truth:1.0 r.Vol.volume) ]
        | None -> [ string_of_int steps; "fail"; "-" ])
      [ 2; 8; 30; 120 ]
  in
  Util.table [ ("steps", 6); ("estimate", 9); ("rel err", 8) ] rows;

  Util.subheader "(c) lattice walk vs hit-and-run (simplex3, truth 1/6)";
  let truth = 1.0 /. 6.0 in
  let rows =
    List.map
      (fun (name, sampler) ->
        let (result, t) =
          Util.time_it (fun () ->
              Vol.estimate rng ~sampler ~budget:(Vol.Practical budget) (P.simplex 3))
        in
        match result with
        | Some r ->
            [ name; Util.fmt_f ~digits:4 r.Vol.volume; Util.fmt_f (Util.rel_err ~truth r.Vol.volume); Util.fmt_f ~digits:2 t ]
        | None -> [ name; "fail"; "-"; "-" ])
      [ ("grid walk (paper)", Vol.Grid_walk); ("hit-and-run", Vol.Hit_and_run) ]
  in
  Util.table [ ("sampler", 18); ("estimate", 9); ("rel err", 8); ("time(s)", 8) ] rows;

  Util.subheader "(c') mixing diagnostics: effective sample size per 1000 steps (cube3)";
  let module BW = Scdb_sampling.Ball_walk in
  let module HR = Scdb_sampling.Hit_and_run in
  let module G = Scdb_sampling.Grid in
  let module W = Scdb_sampling.Walk in
  let cube = P.unit_cube 3 in
  let steps = if fast then 4000 else 20_000 in
  let f x = x.(0) in
  let samplers =
    [
      ( "lattice walk",
        fun rng x -> W.sample rng ~grid:(G.make ~step:0.1 ~dim:3) ~mem:(fun p -> P.mem cube p) ~start:x ~steps:1 );
      ("ball walk", fun rng x -> BW.sample_polytope rng cube ~start:x ~steps:1 ());
      ( "hit-and-run",
        fun rng x -> (HR.sample_polytope_batch [| rng |] cube ~starts:[| x |] ~steps:1).(0) );
    ]
  in
  let rows =
    List.map
      (fun (name, next) ->
        let x = ref (Array.make 3 0.5) in
        let series =
          Array.init steps (fun _ ->
              x := next rng !x;
              f !x)
        in
        (* τ = n/ESS, the integrated autocorrelation time in steps. *)
        let e = Scdb_diag.Diag.ess series in
        let n = float_of_int steps in
        [ name; Util.fmt_f ~digits:1 (n /. e); Util.fmt_f ~digits:1 (e /. n *. 1000.0) ])
      samplers
  in
  Util.table [ ("sampler", 14); ("tau (steps)", 11); ("ESS/1000 steps", 14) ] rows;

  Util.subheader "(d) sec 5: ellipsoid x'Ax <= 1 via membership oracle only";
  let cases =
    [
      ("disc", Mat.identity 2, Vol.ball_volume ~dim:2 ~radius:1.0);
      ("ellipse 1:4", [| [| 1.0; 0.0 |]; [| 0.0; 16.0 |] |], Vol.ball_volume ~dim:2 ~radius:1.0 /. 4.0);
      ("ball3", Mat.identity 3, Vol.ball_volume ~dim:3 ~radius:1.0);
      ( "tilted",
        [| [| 2.0; 0.5 |]; [| 0.5; 1.0 |] |],
        Vol.ball_volume ~dim:2 ~radius:1.0 /. sqrt ((2.0 *. 1.0) -. 0.25) );
    ]
  in
  let rows =
    List.map
      (fun (name, a, truth) ->
        match OB.ellipsoid a with
        | None -> [ name; "not PD"; "-"; "-" ]
        | Some body ->
            let est = OB.estimate_volume rng ~samples_per_phase:(if fast then 800 else 2500) body in
            [ name; Util.fmt_f ~digits:4 truth; Util.fmt_f ~digits:4 est; Util.fmt_f (Util.rel_err ~truth est) ])
      cases
  in
  Util.table [ ("body", 12); ("closed form", 11); ("estimate", 9); ("rel err", 8) ] rows;
  Printf.printf
    "Expectation: (a) rounding is what keeps elongated bodies accurate;\n\
     (b) under-mixed walks are badly biased; (c) both samplers agree, the\n\
     paper's lattice walk pays a constant-factor cost; (d) the machinery\n\
     runs unchanged on convex polynomial bodies (sec 5's conclusion).\n"
