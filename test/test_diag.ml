(* Tests for the convergence diagnostics: Welford moments, ESS,
   split-chain R-hat, the walk monitor, and the end-to-end multi-chain
   harness on the Figure 1 triangle. *)

module Diag = Scdb_diag.Diag
module Diag_run = Scdb_core.Diag_run
module P = Scdb_polytope.Polytope
module Rng = Scdb_rng.Rng

let t name f = Alcotest.test_case name `Quick f
let ts name f = Alcotest.test_case name `Slow f

let welford_tests =
  [
    t "mean and variance match the direct formulas" (fun () ->
        let xs = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
        let w = Diag.Welford.create () in
        Array.iter (Diag.Welford.add w) xs;
        let n = float_of_int (Array.length xs) in
        let mean = Array.fold_left ( +. ) 0.0 xs /. n in
        let var =
          Array.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.0)) 0.0 xs /. (n -. 1.0)
        in
        Alcotest.(check int) "count" 8 (Diag.Welford.count w);
        Alcotest.(check (float 1e-12)) "mean" mean (Diag.Welford.mean w);
        Alcotest.(check (float 1e-12)) "variance" var (Diag.Welford.variance w));
    t "degenerate cases are zero" (fun () ->
        let w = Diag.Welford.create () in
        Alcotest.(check (float 0.0)) "empty mean" 0.0 (Diag.Welford.mean w);
        Diag.Welford.add w 3.0;
        Alcotest.(check (float 0.0)) "n=1 variance" 0.0 (Diag.Welford.variance w));
  ]

let series_tests =
  [
    t "lag-0 autocorrelation is 1" (fun () ->
        let rng = Rng.create 3 in
        let xs = Array.init 256 (fun _ -> Rng.gaussian rng) in
        Alcotest.(check (float 1e-12)) "rho_0" 1.0 (Diag.autocorrelation xs 0));
    t "iid series has near-full ESS" (fun () ->
        let rng = Rng.create 17 in
        let xs = Array.init 1024 (fun _ -> Rng.gaussian rng) in
        let e = Diag.ess xs in
        Alcotest.(check bool) "ess > n/2" true (e > 512.0);
        Alcotest.(check bool) "ess <= n" true (e <= 1024.0));
    t "strongly autocorrelated series has small ESS" (fun () ->
        let rng = Rng.create 17 in
        let xs = Array.make 1024 0.0 in
        for i = 1 to 1023 do
          xs.(i) <- (0.98 *. xs.(i - 1)) +. (0.1 *. Rng.gaussian rng)
        done;
        let e = Diag.ess xs in
        Alcotest.(check bool) "ess << n" true (e < 256.0));
    t "constant series clamps to ESS 1..n" (fun () ->
        let xs = Array.make 64 5.0 in
        let e = Diag.ess xs in
        Alcotest.(check bool) "in range" true (e >= 1.0 && e <= 64.0));
    t "split R-hat near 1 for same-distribution chains" (fun () ->
        let chains =
          Array.init 4 (fun i ->
              let rng = Rng.create (100 + i) in
              Array.init 256 (fun _ -> Rng.gaussian rng))
        in
        let r = Diag.split_rhat chains in
        Alcotest.(check bool) "close to 1" true (r < 1.1));
    t "split R-hat flags shifted chains" (fun () ->
        let chains =
          Array.init 4 (fun i ->
              let rng = Rng.create (200 + i) in
              let shift = if i land 1 = 0 then 5.0 else -5.0 in
              Array.init 256 (fun _ -> shift +. Rng.gaussian rng))
        in
        let r = Diag.split_rhat chains in
        Alcotest.(check bool) "well above 1.1" true (r > 1.2));
    t "split R-hat flags a drifting chain (within-chain split)" (fun () ->
        (* A single chain whose two halves disagree: the "split" part of
           split R-hat must catch it even with m = 1. *)
        let chain = Array.init 256 (fun i -> if i < 128 then 0.0 else 10.0) in
        let chain = Array.mapi (fun i x -> x +. (0.001 *. float_of_int (i mod 7))) chain in
        let r = Diag.split_rhat [| chain |] in
        Alcotest.(check bool) "above 1.1" true (r > 1.1));
  ]

let monitor_tests =
  [
    t "thinning keeps every k-th recorded position" (fun () ->
        let m = Diag.Monitor.create ~thin:3 ~dim:1 () in
        for i = 1 to 10 do
          Diag.Monitor.record m [| float_of_int i |]
        done;
        Alcotest.(check int) "steps" 10 (Diag.Monitor.steps m);
        let kept = Diag.Monitor.kept m in
        Alcotest.(check bool) "kept about n/3" true (kept >= 3 && kept <= 4);
        let s = Diag.Monitor.series m 0 in
        Alcotest.(check int) "series length" kept (Array.length s));
    t "acceptance and stall bookkeeping" (fun () ->
        let m = Diag.Monitor.create ~dim:1 () in
        Diag.Monitor.reject m;
        Diag.Monitor.reject m;
        Diag.Monitor.reject m;
        Diag.Monitor.accept m;
        Diag.Monitor.reject m;
        Diag.Monitor.accept m;
        Alcotest.(check int) "proposals" 6 (Diag.Monitor.proposals m);
        Alcotest.(check int) "accepted" 2 (Diag.Monitor.accepted m);
        Alcotest.(check (float 1e-12)) "rate" (2.0 /. 6.0) (Diag.Monitor.acceptance_rate m);
        Alcotest.(check int) "max stall" 3 (Diag.Monitor.max_stall m));
    t "per-coordinate means track the recorded series" (fun () ->
        let m = Diag.Monitor.create ~dim:2 () in
        Diag.Monitor.record m [| 1.0; 10.0 |];
        Diag.Monitor.record m [| 3.0; 30.0 |];
        let mu = Diag.Monitor.mean_per_coord m in
        Alcotest.(check (float 1e-12)) "coord 0" 2.0 mu.(0);
        Alcotest.(check (float 1e-12)) "coord 1" 20.0 mu.(1));
  ]

let assess_tests =
  [
    t "clean diagnostics converge" (fun () ->
        let v =
          Diag.assess ~rhat:[| 1.01; 1.02 |] ~ess:[| [| 50.0; 60.0 |]; [| 55.0; 45.0 |] |] ()
        in
        Alcotest.(check bool) "converged" true v.Diag.converged);
    t "high R-hat fails" (fun () ->
        let v = Diag.assess ~rhat:[| 1.5 |] ~ess:[| [| 100.0 |] |] () in
        Alcotest.(check bool) "not converged" false v.Diag.converged);
    t "low ESS fails" (fun () ->
        let v = Diag.assess ~rhat:[| 1.0 |] ~ess:[| [| 2.0 |] |] () in
        Alcotest.(check bool) "not converged" false v.Diag.converged);
  ]

let harness_tests =
  [
    ts "hit-and-run mixes on the Figure 1 triangle at the prescribed length" (fun () ->
        let rng = Rng.create 42 in
        match Diag_run.run rng (P.simplex 2) with
        | None -> Alcotest.fail "triangle should round"
        | Some d ->
            Alcotest.(check int) "4 chains" 4 (Array.length d.Diag_run.chains);
            Array.iter
              (fun r -> Alcotest.(check bool) "R-hat < 1.1" true (r < 1.1))
              d.Diag_run.rhat;
            Array.iter
              (fun (c : Diag_run.chain) ->
                Alcotest.(check int) "kept" d.Diag_run.samples_per_chain c.Diag_run.kept;
                Array.iter
                  (fun e -> Alcotest.(check bool) "ess finite positive" true (Float.is_finite e && e >= 1.0))
                  c.Diag_run.ess)
              d.Diag_run.chains;
            Alcotest.(check bool) "verdict converged" true d.Diag_run.verdict.Diag.converged);
    ts "to_json parses and carries finite diagnostics" (fun () ->
        let rng = Rng.create 7 in
        match Diag_run.run ~samples_per_chain:16 rng (P.simplex 2) with
        | None -> Alcotest.fail "triangle should round"
        | Some d -> (
            let module J = Scdb_trace.Json_min in
            let doc = J.parse (Diag_run.to_json d) in
            match J.member "rhat" doc with
            | Some r ->
                let l = Option.get (J.to_list r) in
                Alcotest.(check int) "one rhat per coord" 2 (List.length l);
                List.iter
                  (fun v ->
                    Alcotest.(check bool) "finite" true
                      (Float.is_finite (Option.get (J.to_float v))))
                  l
            | None -> Alcotest.fail "rhat missing"));
  ]

(* Per-chain monitors on the batched kernel must reproduce the old
   sequential-chain loop exactly: same recorded series, hence the same
   ESS, means, acceptance statistics and split R-hat, when each chain is
   given the same generator and Compat directions. *)
let batch_parity_tests =
  let module HR = Scdb_sampling.Hit_and_run in
  [
    t "record_off matches record" (fun () ->
        let a = Diag.Monitor.create ~dim:2 () in
        let b = Diag.Monitor.create ~dim:2 () in
        let flat = [| 9.0; 1.0; 2.0; 3.0; 4.0; 9.0 |] in
        Diag.Monitor.record a [| 1.0; 2.0 |];
        Diag.Monitor.record a [| 3.0; 4.0 |];
        Diag.Monitor.record_off b flat 1;
        Diag.Monitor.record_off b flat 3;
        Alcotest.(check int) "kept" (Diag.Monitor.kept a) (Diag.Monitor.kept b);
        for j = 0 to 1 do
          Alcotest.(check (array (float 0.0)))
            (Printf.sprintf "series %d" j)
            (Diag.Monitor.series a j) (Diag.Monitor.series b j)
        done);
    ts "batched monitors give bit-identical ESS/R-hat to sequential chains" (fun () ->
        let poly = P.simplex 3 in
        let dim = 3 in
        let chains = 4 in
        let thin = 8 and steps = 8 * 48 in
        let start () = Array.make dim 0.2 in
        let seeds = [| 101; 202; 303; 404 |] in
        (* Old-style loop: one monitor per chain, sequential one-chain
           walks. *)
        let seq_monitors =
          Array.map
            (fun seed ->
              let m = Diag.Monitor.create ~thin ~dim () in
              ignore
                (HR.sample_polytope_batch ~monitors:[| m |] [| Rng.create seed |] poly
                   ~starts:[| start () |] ~steps);
              m)
            seeds
        in
        (* Batched: same seeds, Compat directions, one kernel call. *)
        let batch_monitors = Array.init chains (fun _ -> Diag.Monitor.create ~thin ~dim ()) in
        let rngs = Array.map Rng.create seeds in
        let starts = Array.init chains (fun _ -> start ()) in
        ignore
          (HR.sample_polytope_batch ~monitors:batch_monitors ~dir_mode:HR.Compat rngs poly
             ~starts ~steps);
        Array.iteri
          (fun c seq ->
            let bat = batch_monitors.(c) in
            Alcotest.(check int)
              (Printf.sprintf "chain %d kept" c)
              (Diag.Monitor.kept seq) (Diag.Monitor.kept bat);
            Alcotest.(check (float 0.0))
              (Printf.sprintf "chain %d acceptance" c)
              (Diag.Monitor.acceptance_rate seq)
              (Diag.Monitor.acceptance_rate bat);
            Alcotest.(check (array (float 0.0)))
              (Printf.sprintf "chain %d ess" c)
              (Diag.Monitor.ess_per_coord seq)
              (Diag.Monitor.ess_per_coord bat);
            Alcotest.(check (array (float 0.0)))
              (Printf.sprintf "chain %d mean" c)
              (Diag.Monitor.mean_per_coord seq)
              (Diag.Monitor.mean_per_coord bat))
          seq_monitors;
        let seq_list = Array.to_list seq_monitors in
        let bat_list = Array.to_list batch_monitors in
        for coord = 0 to dim - 1 do
          Alcotest.(check (float 0.0))
            (Printf.sprintf "rhat coord %d" coord)
            (Diag.split_rhat_monitors seq_list ~coord)
            (Diag.split_rhat_monitors bat_list ~coord)
        done);
  ]

let suites =
  [
    ("diag.welford", welford_tests);
    ("diag.series", series_tests);
    ("diag.monitor", monitor_tests);
    ("diag.assess", assess_tests);
    ("diag.batch_parity", batch_parity_tests);
    ("diag.harness", harness_tests);
  ]
