(* Perf-regression harness: self-contained kernel benchmarks with
   seed-implementation baselines, emitting BENCH_<n>.json so successive
   PRs can track the trajectory of the hot paths.

   Usage:
     dune exec bench/regress.exe                 write BENCH_<next>.json
     dune exec bench/regress.exe -- -o out.json  explicit output file
     dune exec bench/regress.exe -- --fast       cheaper calibration
     dune exec bench/regress.exe -- --check BENCH_1.json
                                                 exit 1 if any kernel is
                                                 more than 2x slower than
                                                 the given baseline
     dune exec bench/regress.exe -- --trend [FILES...]
                                                 walk the committed
                                                 BENCH_<n>.json trajectory
                                                 (all of them when no FILES
                                                 are given) and exit 1 on
                                                 machine-normalized drift;
                                                 see --trend-threshold,
                                                 --trend-ref, --trend-floor

   Timing runs execute with telemetry disabled (the disabled path is
   what production pays); a separate exercise phase then re-runs the
   probabilistic kernels with telemetry on and embeds the JSON snapshot
   under the "telemetry" key, so BENCH_<n>.json carries acceptance-rate
   and step-count trajectories alongside ns/op.

   Each kernel is measured as median ns/op over several trials; the
   naive/seed baselines replicate the pre-optimization implementations
   (limb-only bigints, chord recomputation, copying lattice steps) so
   the speedup of the incremental kernels and small-int fast paths is
   visible inside a single run. *)

module P = Scdb_polytope.Polytope
module HR = Scdb_sampling.Hit_and_run
module W = Scdb_sampling.Walk
module G = Scdb_sampling.Grid
module FM = Scdb_qe.Fourier_motzkin
module Rng = Scdb_rng.Rng
module Rej = Scdb_sampling.Rejection
module Tel = Scdb_telemetry.Telemetry
module Json = Scdb_json.Json
module Diag = Scdb_diag.Diag

(* ------------------------------------------------------------------ *)
(* Measurement                                                         *)
(* ------------------------------------------------------------------ *)

type result = { name : string; ns_per_op : float; ops : int; trials : int }

(* [f ()] performs [ops] operations of the kernel under test. *)
let measure ~fast ~name ~ops f =
  let target = if fast then 0.01 else 0.05 in
  let trials = if fast then 5 else 9 in
  (* Calibrate the repeat count so one trial takes ~[target] seconds. *)
  let rec calibrate reps =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      f ()
    done;
    let dt = Unix.gettimeofday () -. t0 in
    if dt >= target /. 2.0 || reps > 1_000_000 then (reps, dt) else calibrate (reps * 2)
  in
  let reps, _ = calibrate 1 in
  let samples = ref [] in
  for _ = 1 to trials do
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      f ()
    done;
    let dt = Unix.gettimeofday () -. t0 in
    samples := (dt *. 1e9 /. float_of_int (reps * ops)) :: !samples
  done;
  { name; ns_per_op = Diag.median (Array.of_list !samples); ops; trials }

(* Paired-min timing for the gates: interleaved rounds over the sides,
   each side [(reps, ops, f)] timed as [reps] calls of [f], each call
   performing [ops] operations; returns per side the min over rounds
   of ns/op.  Scheduler noise only ever adds time, so the min is the
   stable per-op cost, and interleaving exposes every side to the same
   machine state. *)
let paired_min ~rounds sides =
  let mins = Array.make (List.length sides) infinity in
  for _ = 1 to rounds do
    List.iteri
      (fun i (reps, ops, f) ->
        let t0 = Unix.gettimeofday () in
        for _ = 1 to reps do
          f ()
        done;
        let ns = (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int (reps * ops) in
        if ns < mins.(i) then mins.(i) <- ns)
      sides
  done;
  mins

(* ------------------------------------------------------------------ *)
(* Seed-implementation baselines                                       *)
(* ------------------------------------------------------------------ *)

(* The seed generator: xoshiro256** with the state in mutable [int64]
   record fields.  Same algorithm and bit stream as the current
   [Rng.t], but every state store re-boxes an int64, which is exactly
   the cost the bytes-backed representation removed — so this replica
   is the honest baseline for anything direction-draw-bound. *)
module Seed_rng = struct
  type t = { mutable s0 : int64; mutable s1 : int64; mutable s2 : int64; mutable s3 : int64 }

  let splitmix64 state =
    let open Int64 in
    state := add !state 0x9E3779B97F4A7C15L;
    let z = !state in
    let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
    logxor z (shift_right_logical z 31)

  let create seed =
    let state = ref (Int64.of_int seed) in
    let s0 = splitmix64 state in
    let s1 = splitmix64 state in
    let s2 = splitmix64 state in
    let s3 = splitmix64 state in
    { s0; s1; s2; s3 }

  let rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

  let bits64 t =
    let open Int64 in
    let result = mul (rotl (mul t.s1 5L) 7) 9L in
    let tmp = shift_left t.s1 17 in
    t.s2 <- logxor t.s2 t.s0;
    t.s3 <- logxor t.s3 t.s1;
    t.s1 <- logxor t.s1 t.s2;
    t.s0 <- logxor t.s0 t.s3;
    t.s2 <- logxor t.s2 tmp;
    t.s3 <- rotl t.s3 45;
    result

  let float t =
    let x = Int64.shift_right_logical (bits64 t) 11 in
    Int64.to_float x *. 0x1p-53

  let uniform t lo hi = lo +. ((hi -. lo) *. float t)
  let bool t = Int64.logand (bits64 t) 1L = 1L

  let int t bound =
    let mask = Int64.of_int max_int in
    let rec go () =
      let x = Int64.to_int (Int64.logand (bits64 t) mask) in
      let r = x mod bound in
      if x - r > max_int - bound + 1 then go () else r
    in
    go ()

  let gaussian t =
    let rec go () =
      let u = uniform t (-1.0) 1.0 and v = uniform t (-1.0) 1.0 in
      let s = (u *. u) +. (v *. v) in
      if s >= 1.0 || s = 0.0 then go () else u *. sqrt (-2.0 *. log s /. s)
    in
    go ()

  let unit_vector t d =
    let rec go () =
      let v = Vec.init d (fun _ -> gaussian t) in
      let n = Vec.norm v in
      if n < 1e-12 then go () else Vec.scale (1.0 /. n) v
    in
    go ()
end

(* The pre-flat chord: per-row Vec.dot against the row-pointer matrix,
   recomputing both A·dir and A·x from scratch (seed
   Polytope.line_intersection). *)
let seed_line_intersection (poly : P.t) x dir =
  let tmin = ref neg_infinity and tmax = ref infinity in
  Array.iteri
    (fun i row ->
      let denom = Vec.dot row dir in
      let slack = poly.P.b.(i) -. Vec.dot row x in
      if Float.abs denom < 1e-14 then begin
        if slack < 0.0 then begin
          tmin := infinity;
          tmax := neg_infinity
        end
      end
      else if denom > 0.0 then tmax := Float.min !tmax (slack /. denom)
      else tmin := Float.max !tmin (slack /. denom))
    poly.P.a;
  if !tmin > !tmax then None else Some (!tmin, !tmax)

(* The seed hit-and-run step: allocating direction draws off the
   record-state generator, chord recomputed from scratch per step,
   position advanced through a fresh Vec.axpy (seed
   Hit_and_run.sample with the seed polytope chord). *)
let seed_hit_and_run_sample rng poly ~start ~steps =
  let dim = Vec.dim start in
  let current = ref (Vec.copy start) in
  for _ = 1 to steps do
    let dir = Seed_rng.unit_vector rng dim in
    match seed_line_intersection poly !current dir with
    | None -> ()
    | Some (lo, hi) ->
        if hi > lo && Float.is_finite lo && Float.is_finite hi then
          current := Vec.axpy (Seed_rng.uniform rng lo hi) dir !current
  done;
  !current

(* The seed lattice step: copy the index vector, materialize the float
   point, evaluate the full membership oracle. *)
let seed_walk_sample rng ~grid ~mem ~start ~steps =
  let start_idx = G.of_point grid start in
  let current = ref start_idx in
  for _ = 1 to steps do
    if not (Seed_rng.bool rng) then begin
      let dim = (grid : G.t).dim in
      let coord = Seed_rng.int rng dim in
      let delta = if Seed_rng.bool rng then 1 else -1 in
      let candidate = Array.copy !current in
      candidate.(coord) <- candidate.(coord) + delta;
      if mem (G.to_point grid candidate) then current := candidate
    end
  done;
  G.to_point grid !current

(* Seed Rational.add: textbook cross-multiplication plus a full
   canonicalizing gcd, every Bigint operation on the limb-only path. *)
let seed_rational_add (a : Rational.t) (b : Rational.t) =
  let open Bigint.Reference in
  let num = add (mul a.Rational.num b.Rational.den) (mul b.Rational.num a.Rational.den) in
  let den = mul a.Rational.den b.Rational.den in
  let g = gcd num den in
  Rational.make (fst (divmod num g)) (fst (divmod den g))

(* ------------------------------------------------------------------ *)
(* Fixtures                                                            *)
(* ------------------------------------------------------------------ *)

let fixture_polytope ~dim ~extra rng =
  (* [-1,1]^dim cut by [extra] random halfspaces at distance 0.8, so the
     origin stays comfortably inside. *)
  let poly = ref (P.cube dim 1.0) in
  for _ = 1 to extra do
    poly := P.add_halfspace !poly (Rng.unit_vector rng dim) 0.8
  done;
  !poly

(* ------------------------------------------------------------------ *)
(* Telemetry exercise                                                  *)
(* ------------------------------------------------------------------ *)

(* Re-run the probabilistic kernels with collection on: hit-and-run and
   the lattice walk on the timing fixture, naive rejection on a 2-D
   body, and Algorithm 1 (sample + Karp–Luby volume) on a two-box
   union.  The resulting snapshot is the per-run stats block that
   BENCH_<n>.json carries alongside the timings. *)
let telemetry_snapshot ~poly ~grid ~centre =
  Tel.reset ();
  Tel.set_enabled true;
  let rng = Rng.create 7_2026 in
  for _ = 1 to 16 do
    ignore (HR.sample_polytope_batch [| rng |] poly ~starts:[| centre |] ~steps:32);
    ignore (W.sample_polytope_batch [| rng |] ~grid poly ~starts:[| centre |] ~steps:64)
  done;
  let tri x = (x.(0) *. x.(0)) +. (x.(1) *. x.(1)) <= 1.0 in
  ignore
    (Rej.sample_many rng ~lo:[| -1.0; -1.0 |] ~hi:[| 1.0; 1.0 |] ~mem:tri ~count:256
       ~max_attempts:10_000);
  let q = Rational.of_int in
  let mk lo hi = Convex_obs.make ~config:Convex_obs.practical_config rng (Relation.box lo hi) in
  (match (mk [| q 0; q 0 |] [| q 1; q 1 |], mk [| q 2; q 0 |] [| q 3; q 1 |]) with
  | Some a, Some b ->
      let u = Union.union2 a b in
      let params = Params.make ~gamma:0.05 ~eps:0.3 ~delta:0.2 () in
      for _ = 1 to 64 do
        ignore (Observable.sample u rng params)
      done;
      ignore (Observable.volume u rng ~eps:0.3 ~delta:0.2)
  | _ -> ());
  (* Compiled-engine exercise: strict-VM draws on the same two-box
     union, so the per-instruction vm.op.* counters ride along in the
     snapshot next to the sampler counters they explain. *)
  (let rng = Rng.create 8_2026 in
   let vars = [ "x"; "y" ] in
   let formula =
     "(0 <= x /\\ x <= 1 /\\ 0 <= y /\\ y <= 1) \\/ (2 <= x /\\ x <= 3 /\\ 0 <= y /\\ y <= 1)"
   in
   let relation = Relation.of_formula ~dim:2 (Parser.parse ~vars formula) in
   match
     Scdb_gis.Plan_exec.compiled_of_relation ~config:Convex_obs.practical_config ~gamma:0.05
       ~eps:0.3 ~delta:0.2 ~task:(Scdb_plan.Plan.Sample 64) rng relation
   with
   | Some (_, Ok prog) -> ignore (Scdb_vm.Vm.sample_many prog rng ~n:64)
   | _ -> ());
  let json = Tel.dump ~only_nonzero:true () in
  Tel.set_enabled false;
  json

(* ------------------------------------------------------------------ *)
(* Plan calibration                                                    *)
(* ------------------------------------------------------------------ *)

(* Execute the Figure 1 two-piece union through the plan-tagged
   pipeline (Scdb_gis.Plan_exec) and embed the predicted-vs-actual
   cost attribution, so the cost model's calibration trajectory rides
   along in BENCH_<n>.json like the telemetry does.  Rows carry
   id/op/predicted/actual/ratio; --check and --trend read only the
   results array. *)
let plan_calibration ~fast =
  let module Plan_exec = Scdb_gis.Plan_exec in
  let module Progress = Scdb_progress.Progress in
  let rng = Rng.create 11_2026 in
  let vars = [ "x"; "y" ] in
  let formula =
    "(x >= 0 /\\ y >= 0 /\\ x + y <= 1) \\/ (x >= 2 /\\ x <= 3 /\\ y >= 0 /\\ y <= 1)"
  in
  let relation = Relation.of_formula ~dim:2 (Parser.parse ~vars formula) in
  let n = if fast then 16 else 64 in
  match
    Plan_exec.observable_of_relation ~config:Convex_obs.practical_config ~gamma:0.05 ~eps:0.3
      ~delta:0.2 ~task:(Scdb_plan.Plan.Sample n) rng relation
  with
  | None -> Json.Null
  | Some (plan, obs) ->
      Plan_exec.arm plan;
      let params = Params.make ~gamma:0.05 ~eps:0.3 ~delta:0.2 () in
      for _ = 1 to n do
        ignore (Observable.sample obs rng params)
      done;
      let attribution = Plan_exec.attribution plan in
      Progress.stop ();
      let root = attribution.(0) in
      Printf.printf "plan calibration: root %s actual/predicted %.2fx over %d nodes\n"
        root.Plan_exec.op root.Plan_exec.ratio (Array.length attribution);
      Plan_exec.attribution_json attribution

(* ------------------------------------------------------------------ *)
(* Engine comparison                                                   *)
(* ------------------------------------------------------------------ *)

(* End-to-end draws/sec on the Figure 1 two-piece union, per execution
   engine: the observable interpreter, the strict VM (bit-exact mirror)
   and the optimized VM (cost-based plan rewrites).  Construction and
   the one-time Karp–Luby weight estimation are warmed out of the
   measurement — the gate is about the per-draw hot path.  Timed with
   [paired_min]: scheduler noise only adds time. *)
let engine_sweep ~fast =
  let module Plan_exec = Scdb_gis.Plan_exec in
  let module Vm = Scdb_vm.Vm in
  let vars = [ "x"; "y" ] in
  let formula =
    "(x >= 0 /\\ y >= 0 /\\ x + y <= 1) \\/ (x >= 2 /\\ x <= 3 /\\ y >= 0 /\\ y <= 1)"
  in
  let relation = Relation.of_formula ~dim:2 (Parser.parse ~vars formula) in
  let gamma = 0.05 and eps = 0.3 and delta = 0.2 in
  let config = Convex_obs.practical_config in
  let task = Scdb_plan.Plan.Sample 1 in
  let params = Params.make ~gamma ~eps ~delta () in
  let interp =
    let rng = Rng.create 13_2026 in
    match Plan_exec.observable_of_relation ~config ~gamma ~eps ~delta ~task rng relation with
    | None -> failwith "engine sweep: union fixture is empty"
    | Some (_, obs) -> fun () -> ignore (Observable.sample_exn obs rng params)
  in
  let compiled optimize =
    let rng = Rng.create 13_2026 in
    match
      Plan_exec.compiled_of_relation ~config ~optimize ~gamma ~eps ~delta ~task rng relation
    with
    | None -> failwith "engine sweep: union fixture is empty"
    | Some (_, Error m) -> failwith ("engine sweep: union fixture does not compile: " ^ m)
    | Some (_, Ok prog) -> fun () -> ignore (Vm.sample_one prog rng)
  in
  let vm = compiled false and vm_opt = compiled true in
  let draws = List.map (fun (_, d) -> d) [ ("interp", interp); ("vm", vm); ("vm-opt", vm_opt) ] in
  (* Warm: first draw runs the cached volume estimation / prologues. *)
  List.iter (fun d -> d ()) draws;
  let rounds = if fast then 7 else 9 in
  let per_round = if fast then 200 else 600 in
  let mins = paired_min ~rounds (List.map (fun d -> (per_round, 1, d)) draws) in
  let interp_ns = mins.(0) and vm_ns = mins.(1) and vm_opt_ns = mins.(2) in
  Printf.printf "\nend-to-end union draws/sec per engine (paired min):\n";
  List.iteri
    (fun i name ->
      Printf.printf "  %-8s %10.1f ns/draw  %12.0f draws/sec  %5.2fx vs interp\n" name mins.(i)
        (1e9 /. mins.(i)) (interp_ns /. mins.(i)))
    [ "interp"; "vm"; "vm-opt" ];
  let json =
    Json.Obj
      [
        ("interp_ns_per_draw", Json.Num interp_ns);
        ("vm_ns_per_draw", Json.Num vm_ns);
        ("vm_opt_ns_per_draw", Json.Num vm_opt_ns);
        ("vm_speedup", Json.Num (interp_ns /. vm_ns));
        ("vm_opt_speedup", Json.Num (interp_ns /. vm_opt_ns));
      ]
  in
  (json, interp_ns /. vm_opt_ns)

(* ------------------------------------------------------------------ *)
(* Profiler overhead                                                   *)
(* ------------------------------------------------------------------ *)

(* The instruction profiler's contract is "cheap enough to leave on":
   counting mode is allocation-free array bumps, timing mode reads the
   monotonic clock only around the kernel opcodes (walk, ensure,
   member).  Measured on the strict VM over the Figure 1 union — the
   walk-bound engine whose ~10 us draws are what a profiled production
   run actually executes; under --check the timing overhead is gated at
   5%.  Timed with [paired_min]. *)
let profile_overhead ~fast =
  let module Plan_exec = Scdb_gis.Plan_exec in
  let module Vm = Scdb_vm.Vm in
  let module Profile = Scdb_profile.Profile in
  let vars = [ "x"; "y" ] in
  let formula =
    "(x >= 0 /\\ y >= 0 /\\ x + y <= 1) \\/ (x >= 2 /\\ x <= 3 /\\ y >= 0 /\\ y <= 1)"
  in
  let relation = Relation.of_formula ~dim:2 (Parser.parse ~vars formula) in
  let rng = Rng.create 17_2026 in
  match
    Plan_exec.compiled_of_relation ~config:Convex_obs.practical_config ~gamma:0.05 ~eps:0.3
      ~delta:0.2 ~task:(Scdb_plan.Plan.Sample 1) rng relation
  with
  | None | Some (_, Error _) -> (Json.Null, 1.0)
  | Some (_, Ok prog) ->
      let counting = Profile.create ~mode:Profile.Counting prog in
      let timing = Profile.create ~mode:Profile.Timing prog in
      let plain () = ignore (Vm.sample_one prog rng) in
      let count () = ignore (Profile.sample_one counting rng) in
      let time () = ignore (Profile.sample_one timing rng) in
      (* Warm: the first draw runs the cached weight estimation. *)
      plain ();
      let rounds = if fast then 7 else 9 in
      let per_round = if fast then 150 else 400 in
      let mins =
        paired_min ~rounds [ (per_round, 1, plain); (per_round, 1, count); (per_round, 1, time) ]
      in
      let c_ov = mins.(1) /. mins.(0) and t_ov = mins.(2) /. mins.(0) in
      Printf.printf
        "\nprofiler overhead on the strict VM (paired min): unprofiled %.1f ns/draw, counting \
         %.1f (%.3fx), timing %.1f (%.3fx)\n"
        mins.(0) mins.(1) c_ov mins.(2) t_ov;
      ( Json.Obj
          [
            ("unprofiled_ns_per_draw", Json.Num mins.(0));
            ("counting_ns_per_draw", Json.Num mins.(1));
            ("timing_ns_per_draw", Json.Num mins.(2));
            ("counting_overhead", Json.Num c_ov);
            ("timing_overhead", Json.Num t_ov);
          ],
        t_ov )

(* ------------------------------------------------------------------ *)
(* Observability-context overhead                                      *)
(* ------------------------------------------------------------------ *)

(* The observability contexts' contract is that the contexted counter
   hot path costs the same as the old global one: with only the
   initial domain holding an installed registry, [with_registry]
   swap the metric cell pointers in place, so a bump is the identical
   load-compare-increment sequence either way.  Measured as paired-min
   ns per enabled counter bump, global registry vs a context's
   registry installed; gated at 1.10x under --check. *)
let ctx_overhead ~fast =
  let c = Tel.Counter.make "bench.ctx_overhead" in
  let was = Tel.enabled () in
  Tel.set_enabled true;
  let reg = Tel.Registry.create () in
  let n = if fast then 200_000 else 1_000_000 in
  let plain () =
    for _ = 1 to n do
      Tel.Counter.incr c
    done
  in
  let ctxed () =
    Tel.with_registry reg (fun () ->
        for _ = 1 to n do
          Tel.Counter.incr c
        done)
  in
  plain ();
  ctxed ();
  let rounds = if fast then 7 else 9 in
  let mins = paired_min ~rounds [ (1, n, plain); (1, n, ctxed) ] in
  Tel.set_enabled was;
  let ov = mins.(1) /. mins.(0) in
  Printf.printf
    "\ncontexted counter bump (paired min): global %.3f ns, context installed %.3f ns (%.3fx)\n"
    mins.(0) mins.(1) ov;
  ( Json.Obj
      [
        ("global_ns_per_bump", Json.Num mins.(0));
        ("ctx_ns_per_bump", Json.Num mins.(1));
        ("ctx_overhead", Json.Num ov);
      ],
    ov )

(* ------------------------------------------------------------------ *)
(* Perf-trend ledger (--trend)                                         *)
(* ------------------------------------------------------------------ *)

(* Walk the committed BENCH_<n>.json trajectory and flag silent drifts.

   Raw ns/op is machine-dependent: the committed files were written on
   different (or differently loaded) boxes, and the fixed seed-replica
   kernels alone swing by up to ~1.4x across the trajectory.  Every
   metric is therefore normalized by a reference kernel measured in the
   same file (--trend-ref, default hit_and_run.step.seed — a frozen
   implementation that can only move with the machine): the ratio
   cancels machine speed and leaves genuine relative regressions.

   A metric FAILS when its latest normalized value exceeds
   --trend-threshold times the MEDIAN of its normalized series — the
   code ended slower, relative to the machine it ran on, than its
   typical trajectory level by more than the threshold.  The median
   (not the minimum) is the baseline deliberately: the reference
   kernel itself jitters run to run, and one file whose reference
   happened to run slow deflates every normalized value in that file
   by the same common-mode factor — a minimum baseline is poisoned
   forever by a single such file (BENCH_7 set chord.seed's minimum
   ~30% below every other file in the trajectory, which would have
   made any honest later file fail), while the median shrugs off
   outlier files in either direction as long as they stay a minority.
   The tradeoff is a weaker ratchet — a regression already present in
   more than half the trajectory lifts the median with it — but the
   paired --check gate (2x vs the immediate predecessor) covers the
   step-regression case, and consecutive-step jumps above the
   threshold that later recovered are still reported as DRIFT
   warnings without failing.

   Metrics that never exceed --trend-floor (default 50 ns/op) in any
   file are skipped: a single-word bigint add runs in a handful of
   nanoseconds, where timer granularity and loop overhead swamp any
   real trend, and a sub-floor kernel that genuinely regressed past the
   floor re-enters the ledger by construction (the skip keys off the
   series MAXIMUM, not its last value). *)

let trend_fail fmt = Printf.ksprintf (fun m -> prerr_endline ("regress --trend: " ^ m); exit 2) fmt

let bench_index f =
  let base = Filename.basename f in
  let pre = "BENCH_" and suf = ".json" in
  let lp = String.length pre and ls = String.length suf in
  let lb = String.length base in
  if lb > lp + ls && String.sub base 0 lp = pre && String.sub base (lb - ls) ls = suf then
    int_of_string_opt (String.sub base lp (lb - lp - ls))
  else None

(* The (name, ns/op) rows of a BENCH file's results array; [--check]
   reads its baseline the same way. *)
let bench_results file =
  let row r =
    match (Json.field_opt "name" Json.str r, Json.field_opt "ns_per_op" Json.num r) with
    | Some name, Some ns when ns > 0.0 -> Some (name, ns)
    | _ -> None
  in
  Json.of_file file (Json.field "results" (Json.list row)) |> Result.map (List.filter_map Fun.id)

let trend_table file =
  match bench_results file with Ok rows -> rows | Error m -> trend_fail "%s" m

let trend ~files ~threshold ~ref_name ~floor_ns =
  let files =
    match files with
    | _ :: _ -> files
    | [] ->
        Sys.readdir "." |> Array.to_list
        |> List.filter_map (fun f -> Option.map (fun i -> (i, f)) (bench_index f))
        |> List.sort compare |> List.map snd
  in
  if List.length files < 2 then
    trend_fail "need at least 2 BENCH files to compare (got %d)" (List.length files);
  let raw = List.map (fun f -> (f, trend_table f)) files in
  let norm =
    List.map
      (fun (f, tbl) ->
        match List.assoc_opt ref_name tbl with
        | Some r when r > 0.0 -> (f, List.map (fun (n, v) -> (n, v /. r)) tbl)
        | _ -> trend_fail "%s has no usable %s row to normalize by" f ref_name)
      raw
  in
  (* Metrics in first-appearance order, present in >= 2 files; the
     reference normalizes to 1.0 everywhere so it is skipped. *)
  let names =
    List.fold_left
      (fun acc (_, tbl) ->
        List.fold_left
          (fun acc (n, _) -> if n = ref_name || List.mem n acc then acc else acc @ [ n ])
          acc tbl)
      [] norm
  in
  Printf.printf "perf trend over %d file(s), normalized by %s, threshold %.2fx:\n"
    (List.length files) ref_name threshold;
  Printf.printf "  %s\n" (String.concat " -> " files);
  let failures = ref 0 and drifts = ref 0 and floored = ref 0 in
  List.iter
    (fun name ->
      let raw_series =
        List.filter_map (fun (_, tbl) -> List.assoc_opt name tbl) raw
      in
      let sub_floor =
        raw_series <> [] && List.fold_left Float.max 0.0 raw_series < floor_ns
      in
      if sub_floor then incr floored;
      let series =
        if sub_floor then []
        else List.filter_map (fun (_, tbl) -> List.assoc_opt name tbl) norm
      in
      match series with
      | [] | [ _ ] -> ()
      | vs ->
          let med = Diag.median (Array.of_list vs) in
          let last = List.nth vs (List.length vs - 1) in
          let ratio = last /. med in
          let step_drift =
            let rec go = function
              | a :: (b :: _ as rest) -> (b /. a > threshold) || go rest
              | _ -> false
            in
            go vs
          in
          let verdict =
            if ratio > threshold then begin
              incr failures;
              "FAIL"
            end
            else if step_drift then begin
              incr drifts;
              "DRIFT"
            end
            else "ok"
          in
          if verdict <> "ok" || ratio > 1.0 +. ((threshold -. 1.0) /. 2.0) then
            Printf.printf "  %-36s [%s]  last/med %5.2fx  %s\n" name
              (String.concat " " (List.map (Printf.sprintf "%.3f") vs))
              ratio verdict)
    names;
  if !floored > 0 then
    Printf.printf "%d metric(s) below the %.0f ns noise floor skipped (see --trend-floor)\n"
      !floored floor_ns;
  if !drifts > 0 then
    Printf.printf "%d metric(s) drifted past %.2fx mid-trajectory but recovered\n" !drifts
      threshold;
  if !failures > 0 then begin
    Printf.printf
      "%d metric(s) ended more than %.2fx above their trajectory median (machine-normalized)\n"
      !failures threshold;
    exit 1
  end
  else Printf.printf "no metric ends more than %.2fx above its trajectory minimum\n" threshold

(* ------------------------------------------------------------------ *)
(* Convergence diagnostics                                             *)
(* ------------------------------------------------------------------ *)

(* Multi-chain hit-and-run diagnostics on the timing fixture: ESS,
   split R-hat and the verdict ride along in BENCH_<n>.json so mixing
   regressions are as visible as ns/op regressions. *)
let diagnostics_block ~fast ~poly =
  let rng = Rng.create 9_2026 in
  let samples_per_chain = if fast then 32 else Diag_run.default_samples_per_chain in
  match Diag_run.run ~samples_per_chain rng poly with
  | None -> Json.Null
  | Some d ->
      Printf.printf "diagnostics: max split R-hat %.4f, %s\n"
        (Array.fold_left Float.max 1.0 d.Diag_run.rhat)
        (if d.Diag_run.verdict.Scdb_diag.Diag.converged then "converged" else "NOT converged");
      Diag_run.to_json d

(* ------------------------------------------------------------------ *)
(* Baseline comparison (--check)                                       *)
(* ------------------------------------------------------------------ *)

let check_against ~baseline results =
  let base =
    match bench_results baseline with
    | Ok rows -> rows
    | Error m ->
        prerr_endline ("regress --check: " ^ m);
        exit 2
  in
  let failures = ref 0 in
  Printf.printf "\ncheck vs %s (fail if > 2.00x):\n" baseline;
  List.iter
    (fun r ->
      match List.assoc_opt r.name base with
      | None -> Printf.printf "  %-34s (no baseline, skipped)\n" r.name
      | Some b ->
          let ratio = r.ns_per_op /. b in
          let flag = if ratio > 2.0 then "FAIL" else "ok" in
          if ratio > 2.0 then incr failures;
          Printf.printf "  %-34s %8.1f vs %8.1f ns/op  %5.2fx  %s\n" r.name r.ns_per_op b ratio flag)
    results;
  if !failures > 0 then begin
    Printf.printf "%d kernel(s) regressed more than 2x vs %s\n" !failures baseline;
    exit 1
  end
  else Printf.printf "all kernels within 2x of %s\n" baseline

let run ~fast ~out ~check =
  (* Timings measure the disabled-telemetry path — what production pays. *)
  Tel.set_enabled false;
  let rng = Rng.create 20060101 in
  let seed_rng = Seed_rng.create 20060101 in
  let dim = 12 in
  let poly = fixture_polytope ~dim ~extra:48 rng in
  let centre = Vec.create dim in
  let grid = G.make ~step:0.0625 ~dim in
  let hr_steps = 32 and walk_steps = 64 in
  let mem x = P.mem poly x in
  (* Small-operand exact arithmetic fixtures. *)
  let sa = Bigint.of_int 123_456_789 and sb = Bigint.of_int 987_654_321 in
  let qa = Rational.of_ints 355 113 and qb = Rational.of_ints 113 355 in
  let big_a = Bigint.pow (Bigint.of_int 3) 400 and big_b = Bigint.pow (Bigint.of_int 7) 300 in
  let simplex4_tuple = List.concat (Relation.tuples (Relation.standard_simplex 4)) in
  let dir = Rng.unit_vector rng dim in
  (* One-chain batch staged with [dir]: the chord every K = 1 walk
     step takes. *)
  let chord_batch = P.Kernel.Batch.make poly [| centre |] in
  P.Kernel.Batch.set_dir chord_batch 0 dir;
  let batched_bench k =
    let rngs = Array.init k (fun i -> Rng.create (777 + i)) in
    let starts = Array.init k (fun _ -> Vec.create dim) in
    measure ~fast
      ~name:(Printf.sprintf "hit_and_run.step.batched.K%d" k)
      ~ops:(k * hr_steps)
      (fun () -> ignore (HR.sample_polytope_batch rngs poly ~starts ~steps:hr_steps))
  in
  (* Direction-bound companion fixture: the standard simplex at the
     same dimension.  With m = dim+1 rows the per-draw cost is
     dominated by the direction draw, so this sweep isolates what
     batching actually buys (per-draw overhead amortization; every K
     draws the same ziggurat directions) — the 72-row union fixture above is
     flop-bound: its O(m·d) chord scan is per-chain work that no
     batching can amortize, capping its K16 speedup well below 2x (see
     EXPERIMENTS.md).  Longer invocations amortize batch setup to
     noise. *)
  let sdim = 16 in
  let spoly = P.simplex sdim in
  let scentroid = Array.make sdim (1.0 /. float_of_int (sdim + 1)) in
  let dirbound_steps = 256 in
  let batched_dirbound_bench k =
    let rngs = Array.init k (fun i -> Rng.create (4242 + i)) in
    let starts = Array.init k (fun _ -> Vec.copy scentroid) in
    measure ~fast
      ~name:(Printf.sprintf "hit_and_run.step.batched.dirbound.K%d" k)
      ~ops:(k * dirbound_steps)
      (fun () -> ignore (HR.sample_polytope_batch rngs spoly ~starts ~steps:dirbound_steps))
  in
  (* The K16-vs-K1 scaling gate gets its own paired measurement:
     interleaved rounds and a min estimator (scheduler noise only ever
     adds time, so the min is the stable per-draw cost — the medians
     above can catch a noise spike on one side of the ratio and flake
     the gate on a loaded box). *)
  let dirbound_gate () =
    let rounds = if fast then 7 else 9 in
    let steps = dirbound_steps in
    let rngs1 = [| Rng.create 5151 |] in
    let starts1 = [| Vec.copy scentroid |] in
    let rngs16 = Array.init 16 (fun i -> Rng.create (6161 + i)) in
    let starts16 = Array.init 16 (fun _ -> Vec.copy scentroid) in
    let mins =
      paired_min ~rounds
        [
          (32, steps, fun () -> ignore (HR.sample_polytope_batch rngs1 spoly ~starts:starts1 ~steps));
          ( 4,
            16 * steps,
            fun () -> ignore (HR.sample_polytope_batch rngs16 spoly ~starts:starts16 ~steps) );
        ]
    in
    (mins.(0), mins.(1), mins.(0) /. mins.(1))
  in
  let results =
    [
      measure ~fast ~name:"hit_and_run.step.seed" ~ops:hr_steps (fun () ->
          ignore (seed_hit_and_run_sample seed_rng poly ~start:centre ~steps:hr_steps));
      measure ~fast ~name:"hit_and_run.step.naive" ~ops:hr_steps (fun () ->
          ignore (HR.sample rng ~chord:(HR.polytope_chord poly) ~start:centre ~steps:hr_steps));
      (* The pipeline's hit-and-run: one chain of the batched kernel. *)
      measure ~fast ~name:"hit_and_run.step.incremental" ~ops:hr_steps (fun () ->
          ignore (HR.sample_polytope_batch [| rng |] poly ~starts:[| centre |] ~steps:hr_steps));
      (* Batched SoA kernel at K chains: ns per chain-step (one draw),
         so draws/sec = 1e9 / ns_per_op.  Every K draws ziggurat
         directions. *)
      batched_bench 1;
      batched_bench 2;
      batched_bench 4;
      batched_bench 8;
      batched_bench 16;
      batched_dirbound_bench 1;
      batched_dirbound_bench 2;
      batched_dirbound_bench 4;
      batched_dirbound_bench 8;
      batched_dirbound_bench 16;
      measure ~fast ~name:"walk.step.seed" ~ops:walk_steps (fun () ->
          ignore (seed_walk_sample seed_rng ~grid ~mem ~start:centre ~steps:walk_steps));
      measure ~fast ~name:"walk.step.incremental" ~ops:walk_steps (fun () ->
          ignore
            (W.sample_polytope_batch [| rng |] ~grid poly ~starts:[| centre |] ~steps:walk_steps));
      measure ~fast ~name:"chord.seed" ~ops:1 (fun () ->
          ignore (seed_line_intersection poly centre dir));
      measure ~fast ~name:"chord.flat" ~ops:1 (fun () -> ignore (P.line_intersection poly centre dir));
      measure ~fast ~name:"chord.incremental" ~ops:1 (fun () ->
          P.Kernel.Batch.chord_all chord_batch);
      measure ~fast ~name:"bigint.add.small" ~ops:1 (fun () -> ignore (Bigint.add sa sb));
      measure ~fast ~name:"bigint.add.small.limb" ~ops:1 (fun () ->
          ignore (Bigint.Reference.add sa sb));
      measure ~fast ~name:"bigint.mul.small" ~ops:1 (fun () -> ignore (Bigint.mul sa sb));
      measure ~fast ~name:"bigint.mul.small.limb" ~ops:1 (fun () ->
          ignore (Bigint.Reference.mul sa sb));
      measure ~fast ~name:"bigint.gcd.small" ~ops:1 (fun () -> ignore (Bigint.gcd sa sb));
      measure ~fast ~name:"bigint.gcd.small.limb" ~ops:1 (fun () ->
          ignore (Bigint.Reference.gcd sa sb));
      measure ~fast ~name:"bigint.mul.big" ~ops:1 (fun () -> ignore (Bigint.mul big_a big_b));
      measure ~fast ~name:"rational.add.small" ~ops:1 (fun () -> ignore (Rational.add qa qb));
      measure ~fast ~name:"rational.add.small.seed" ~ops:1 (fun () ->
          ignore (seed_rational_add qa qb));
      measure ~fast ~name:"rational.mul.small" ~ops:1 (fun () -> ignore (Rational.mul qa qb));
      measure ~fast ~name:"fm.eliminate_var(simplex4)" ~ops:1 (fun () ->
          ignore (FM.eliminate_var_tuple ~prune:false 3 simplex4_tuple));
    ]
  in
  (* Report. *)
  Printf.printf "%-34s  %12s\n" "kernel" "median ns/op";
  Printf.printf "%s\n" (String.make 48 '-');
  List.iter (fun r -> Printf.printf "%-34s  %12.1f\n" r.name r.ns_per_op) results;
  let find n = List.find (fun r -> r.name = n) results in
  let speedup slow fastk =
    let s = (find slow).ns_per_op /. (find fastk).ns_per_op in
    Printf.printf "speedup %-28s %6.2fx  (%s -> %s)\n" fastk s slow fastk;
    s
  in
  print_newline ();
  let checks =
    [
      speedup "hit_and_run.step.seed" "hit_and_run.step.incremental";
      speedup "walk.step.seed" "walk.step.incremental";
      speedup "chord.seed" "chord.incremental";
      speedup "bigint.mul.small.limb" "bigint.mul.small";
      speedup "bigint.add.small.limb" "bigint.add.small";
      speedup "rational.add.small.seed" "rational.add.small";
    ]
  in
  List.iter (fun s -> if s < 2.0 then Printf.printf "WARNING: speedup %.2fx below the 2x target\n" s) checks;
  (* Draws/sec vs K on both fixtures: the batched kernel's scaling
     headline.  The direction-bound K16 throughput is the acceptance
     gate — enforced under --check; the flop-bound union sweep rides
     along so chord-dominated scaling regressions stay visible too. *)
  let batch_ks = [ 1; 2; 4; 8; 16 ] in
  let sweep_of prefix =
    List.map (fun k -> find (Printf.sprintf "%s.K%d" prefix k)) batch_ks
  in
  let print_sweep label rs =
    Printf.printf "\nbatched hit-and-run draws/sec vs K (%s):\n" label;
    let k1_ns = (List.hd rs).ns_per_op in
    List.iter2
      (fun k r ->
        Printf.printf "  K=%-3d %8.1f ns/draw  %12.0f draws/sec  %5.2fx\n" k r.ns_per_op
          (1e9 /. r.ns_per_op) (k1_ns /. r.ns_per_op))
      batch_ks rs
  in
  let union_results = sweep_of "hit_and_run.step.batched" in
  let dirbound_results = sweep_of "hit_and_run.step.batched.dirbound" in
  print_sweep "union fixture, flop-bound" union_results;
  print_sweep "simplex fixture, direction-bound" dirbound_results;
  let gate_k1_ns, gate_k16_ns, batch_speedup_k16 = dirbound_gate () in
  Printf.printf
    "\ndirbound scaling gate (paired min): K1 %.1f ns/draw, K16 %.1f ns/draw, %.2fx\n"
    gate_k1_ns gate_k16_ns batch_speedup_k16;
  let sweep_json rs =
    let k1_ns = (List.hd rs).ns_per_op in
    Json.Arr
      (List.map2
         (fun k r ->
           Json.Obj
             [
               ("chains", Json.Int k);
               ("ns_per_draw", Json.Num r.ns_per_op);
               ("draws_per_sec", Json.Num (1e9 /. r.ns_per_op));
               ("speedup_vs_k1", Json.Num (k1_ns /. r.ns_per_op));
             ])
         batch_ks rs)
  in
  let batch_sweep_json =
    Json.Obj
      [
        ("union", sweep_json union_results);
        ("dirbound_simplex", sweep_json dirbound_results);
        ( "dirbound_gate",
          Json.Obj
            [
              ("k1_ns_per_draw", Json.Num gate_k1_ns);
              ("k16_ns_per_draw", Json.Num gate_k16_ns);
              ("k16_speedup", Json.Num batch_speedup_k16);
            ] );
      ]
  in
  (* Per-run stats block: the probabilistic kernels observed end to end. *)
  let telemetry = telemetry_snapshot ~poly ~grid ~centre in
  let calibration = plan_calibration ~fast in
  let engine_json, vm_opt_speedup = engine_sweep ~fast in
  let overhead_json, timing_overhead = profile_overhead ~fast in
  let ctx_json, ctx_ov = ctx_overhead ~fast in
  let diagnostics = diagnostics_block ~fast ~poly in
  let doc =
    Json.Obj
      [
        ("schema", Json.Str "spatialdb-bench/7");
        ( "results",
          Json.Arr
            (List.map
               (fun r ->
                 Json.Obj
                   [
                     ("name", Json.Str r.name);
                     ("ns_per_op", Json.Num r.ns_per_op);
                     ("trials", Json.Int r.trials);
                   ])
               results) );
        ("batch_sweep", batch_sweep_json);
        ("plan_calibration", calibration);
        ("engine_sweep", engine_json);
        ("profile_overhead", overhead_json);
        ("ctx_overhead", ctx_json);
        ("telemetry", telemetry);
        ("diagnostics", diagnostics);
      ]
  in
  Out_channel.with_open_text out (fun oc -> output_string oc (Json.to_string doc));
  Printf.printf "\nwrote %s\n" out;
  Option.iter
    (fun baseline ->
      check_against ~baseline results;
      (* Scaling gate: on the direction-bound fixture the batched
         kernel must hold >= 2x draws/sec at K=16 over K=1, on top of
         the per-kernel 2x-slower gate above.  (The union fixture is
         not gated at 2x: its per-chain O(m·d) chord flops dominate and
         cannot amortize across chains, so its honest ceiling is lower
         — its sweep is still recorded and covered by the per-kernel
         regression check.) *)
      if batch_speedup_k16 < 2.0 then begin
        Printf.printf
          "FAIL: batched K16 draws/sec only %.2fx of K1 on the direction-bound fixture (gate: \
           >= 2x)\n"
          batch_speedup_k16;
        exit 1
      end
      else
        Printf.printf
          "batched K16 draws/sec %.2fx of K1 on the direction-bound fixture (gate: >= 2x)\n"
          batch_speedup_k16;
      (* Compiled-engine gate: the optimized VM must hold >= 2x end-to-end
         draws/sec over the interpreter on the union fixture.  The strict
         VM is informational only — it mirrors the interpreter's RNG
         stream instruction for instruction, so its win is dispatch
         overhead, not algorithmic. *)
      if vm_opt_speedup < 2.0 then begin
        Printf.printf
          "FAIL: vm-opt draws/sec only %.2fx of interp on the union fixture (gate: >= 2x)\n"
          vm_opt_speedup;
        exit 1
      end
      else
        Printf.printf "vm-opt draws/sec %.2fx of interp on the union fixture (gate: >= 2x)\n"
          vm_opt_speedup;
      (* Profiler gate: timing mode must stay within 5% of the
         unprofiled strict VM on the union fixture, so leaving the
         profiler attached to a diagnostic run never distorts what it
         measures.  Counting mode is strictly cheaper and rides along
         uninstrumented. *)
      if timing_overhead > 1.05 then begin
        Printf.printf
          "FAIL: timing-mode profiler overhead %.3fx on the strict VM (gate: <= 1.05x)\n"
          timing_overhead;
        exit 1
      end
      else
        Printf.printf "timing-mode profiler overhead %.3fx on the strict VM (gate: <= 1.05x)\n"
          timing_overhead;
      (* Context gate: installing an observability context must not
         slow the counter hot path — the sentinel-swap design makes
         the contexted bump the same instruction sequence as the
         global one, so anything past 1.10x means the fast path
         regressed. *)
      if ctx_ov > 1.10 then begin
        Printf.printf
          "FAIL: contexted counter bump %.3fx of the global path (gate: <= 1.10x)\n" ctx_ov;
        exit 1
      end
      else
        Printf.printf "contexted counter bump %.3fx of the global path (gate: <= 1.10x)\n"
          ctx_ov)
    check

let usage_fail fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("regress: " ^ m ^ " (see usage in the source header)");
      exit 2)
    fmt

let () =
  let bool_flags = [ "--fast"; "--trend" ] in
  let value_flags = [ "-o"; "--check"; "--trend-threshold"; "--trend-ref"; "--trend-floor" ] in
  (* Every argument is a known flag, a known flag's value, or (under
     --trend) a BENCH file; anything else is a usage error, so a stale
     or misspelt flag cannot pass unnoticed. *)
  let rec parse flags files = function
    | [] -> (flags, List.rev files)
    | f :: rest when List.mem f bool_flags -> parse ((f, "") :: flags) files rest
    | f :: v :: rest when List.mem f value_flags -> parse ((f, v) :: flags) files rest
    | f :: [] when List.mem f value_flags -> usage_fail "%s needs a value" f
    | a :: _ when String.length a > 0 && a.[0] = '-' -> usage_fail "unknown flag %S" a
    | a :: rest -> parse flags (a :: files) rest
  in
  let flags, files = parse [] [] (List.tl (Array.to_list Sys.argv)) in
  let after flag = List.assoc_opt flag flags in
  let fast = List.mem_assoc "--fast" flags in
  if List.mem_assoc "--trend" flags then begin
    let threshold =
      match after "--trend-threshold" with
      | None -> 1.25
      | Some s -> (
          match float_of_string_opt s with
          | Some t when t > 1.0 -> t
          | _ -> trend_fail "--trend-threshold must be a number > 1 (got %S)" s)
    in
    let ref_name = Option.value ~default:"hit_and_run.step.seed" (after "--trend-ref") in
    let floor_ns =
      match after "--trend-floor" with
      | None -> 50.0
      | Some s -> (
          match float_of_string_opt s with
          | Some f when f >= 0.0 -> f
          | _ -> trend_fail "--trend-floor must be a number >= 0 (got %S)" s)
    in
    trend ~files ~threshold ~ref_name ~floor_ns
  end
  else begin
    (match files with [] -> () | a :: _ -> usage_fail "unexpected argument %S" a);
    let check = after "--check" in
    let out =
      match after "-o" with
      | Some f -> f
      | None ->
          let rec next n =
            let f = Printf.sprintf "BENCH_%d.json" n in
            if Sys.file_exists f then next (n + 1) else f
          in
          next 1
    in
    run ~fast ~out ~check
  end
