(* The instrumentation golden document: fixed-seed runs of every
   instrumented sampler, each in its own observability context with
   telemetry, tracing, debug-level logging and a progress bus on, reduced
   to what the samplers report.  Per workload it keeps

   - the nonzero counters and the histogram observation counts,
   - every log event with its level, span id and fields,
   - every span with its depth and attributes (durations dropped),
   - the progress bus's per-node steps and trials.

   Everything here is a pure function of the seeds, so the document is
   byte-stable across runs and machines; [test_obs.ml] compares it with
   [fixtures/instrumentation.golden.json]. *)

module Obs = Scdb_obs.Obs
module Tel = Scdb_telemetry.Telemetry
module Trace = Scdb_trace.Trace
module Log = Scdb_log.Log
module Progress = Scdb_progress.Progress
module J = Scdb_json.Json
module P = Scdb_polytope.Polytope
module Rng = Scdb_rng.Rng
module Plan = Scdb_plan.Plan
module Vm = Scdb_vm.Vm
module Flight = Scdb_gis.Flight
module Plan_exec = Scdb_gis.Plan_exec
open Scdb_core
open Scdb_sampling

let box2 x0 x1 y0 y1 = P.box [| x0; y0 |] [| x1; y1 |]
let triangle = P.make ~dim:2 [| [| -1.0; 0.0 |]; [| 0.0; -1.0 |]; [| 1.0; 1.0 |] |] [| 0.0; 0.0; 1.0 |]
let cfg = Convex_obs.practical_config
let eps = 0.2
let delta = 0.1
let gamma = 0.05
let params = Params.make ~gamma ~eps ~delta ()

(* ------------------------------------------------------------------ *)
(* Capture                                                             *)
(* ------------------------------------------------------------------ *)

let counters reg =
  match J.field "counters" Fun.id (Tel.dump ~only_nonzero:true ~reg ()) with
  | J.Obj kvs -> J.Obj kvs
  | _ -> J.Obj []

let histogram_counts reg =
  match J.field "histograms" Fun.id (Tel.dump ~only_nonzero:true ~reg ()) with
  | J.Obj kvs -> J.Obj (List.map (fun (k, h) -> (k, J.Int (J.field "count" J.int h))) kvs)
  | _ -> J.Obj []

let events sink =
  J.Arr
    (List.map
       (fun line ->
         let e = J.parse line in
         J.Obj
           [
             ("level", J.field "level" Fun.id e);
             ("event", J.field "event" Fun.id e);
             ("span", J.field "span" Fun.id e);
             ("fields", J.field "fields" Fun.id e);
           ])
       (Log.Sink.tail sink))

(* One line per span, "depth:name k=v …"; a run of identical lines
   (a kernel span per trial) collapses to one line with an " xN"
   suffix. *)
let spans forest =
  let line (v : Trace.view) =
    String.concat " "
      (Printf.sprintf "%d:%s" v.Trace.v_depth v.Trace.v_name
      :: List.map (fun (k, a) -> k ^ "=" ^ a) v.Trace.v_attrs)
  in
  let flush acc = function
    | None -> acc
    | Some (l, 1) -> J.Str l :: acc
    | Some (l, n) -> J.Str (Printf.sprintf "%s x%d" l n) :: acc
  in
  let acc, run =
    List.fold_left
      (fun (acc, run) v ->
        let l = line v in
        match run with
        | Some (l', n) when l' = l -> (acc, Some (l, n + 1))
        | _ -> (flush acc run, Some (l, 1)))
      ([], None) (Trace.Forest.spans forest)
  in
  J.Arr (List.rev (flush acc run))

let progress bus =
  J.Arr
    (Array.to_list
       (Array.map
          (fun (r : Progress.row) ->
            J.Str
              (Printf.sprintf "#%d %s steps=%.0f trials=%.0f" r.Progress.id r.Progress.label
                 r.Progress.steps r.Progress.trials))
          (Progress.Bus.rows bus)))

(* Run [f] in a fresh context with every store on.  [rows] arms the
   context's progress bus (a plan's budget rows, or one root row). *)
let capture name ?(rows = [| (0, "root", 0.0) |]) f =
  let ctx = Obs.Ctx.create ~name ~ring_capacity:100_000 () in
  Obs.Ctx.run ctx (fun () ->
      Progress.start ~rows ();
      Fun.protect ~finally:Progress.stop f);
  ( name,
    J.Obj
      [
        ("counters", counters (Obs.Ctx.registry ctx));
        ("histograms", histogram_counts (Obs.Ctx.registry ctx));
        ("events", events (Obs.Ctx.sink ctx));
        ("spans", spans (Obs.Ctx.forest ctx));
        ("progress", progress (Obs.Ctx.bus ctx));
      ] )

let with_stores_on f =
  let tel = Tel.enabled () and tr = Trace.enabled () in
  let lg = Log.enabled () and lvl = Log.level () in
  Tel.set_enabled true;
  Trace.set_enabled true;
  Log.set_enabled true;
  Log.set_level Log.Debug;
  Fun.protect
    ~finally:(fun () ->
      Tel.set_enabled tel;
      Trace.set_enabled tr;
      Log.set_enabled lg;
      Log.set_level lvl)
    f

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

let plan_rows plan = Plan.budget_rows plan

(* Union of two overlapping boxes through the CLI's front door. *)
let union_run engine =
  let relation =
    match
      Flight.parse_relation ~vars:[ "x"; "y" ]
        "(0 <= x and x <= 2 and 0 <= y and y <= 1) or (1 <= x and x <= 3 and 0 <= y and y <= 1)"
    with
    | Ok r -> r
    | Error m -> failwith m
  in
  let rng = Rng.create 11 in
  let prepared =
    Option.get
      (Plan_exec.prepare ~config:cfg ~gamma ~eps ~delta ~task:(Plan.Sample 4) rng relation)
  in
  let e =
    match Flight.start_engine ~engine ~eps ~delta prepared with
    | Ok e -> e
    | Error m -> failwith m
  in
  capture ("union." ^ engine) ~rows:(plan_rows prepared.Plan_exec.plan) (fun () ->
      ignore (e.Flight.draw rng 4);
      ignore (Observable.volume e.Flight.observable rng ~gamma ~eps ~delta))

let prepare_all seed polys =
  let rng = Rng.create seed in
  (rng, Array.of_list (List.map (fun p -> Option.get (Convex_obs.prepare ~config:cfg rng p)) polys))

let leaf ~eps ~delta p =
  Plan.dfk ~eps ~delta ~dim:(P.dim p) ~method_:"walk" ~constraints:(P.num_constraints p)
    ~volume_budget:2000 ()

(* Hand-built binary plans, run by the observable algebra (the VM
   lowers no intersection or difference). *)
let binary_run name ~seed ~polys ~plan ~interp =
  let rng, preps = prepare_all seed polys in
  let plan = Plan.finalize ~gamma ~eps ~delta ~task:(Plan.Sample 3) plan in
  let obs = interp (Array.map Convex_obs.observe preps) in
  capture (name ^ ".interp") ~rows:(plan_rows plan) (fun () ->
      ignore (Observable.sample_many obs rng params ~n:3);
      ignore (Observable.volume obs rng ~gamma ~eps ~delta))

let inter_run () =
  let polys = [ box2 0.0 2.0 0.0 1.0; box2 1.0 3.0 0.0 1.0 ] in
  let sub_eps = eps /. 3.0 and sub_delta = delta /. 8.0 in
  binary_run "inter" ~seed:51 ~polys
    ~plan:(Plan.inter_ ~eps ~delta (List.map (leaf ~eps:sub_eps ~delta:sub_delta) polys))
    ~interp:(fun o -> Inter.inter (Array.to_list o))

let diff_run () =
  let polys = [ box2 0.0 3.0 0.0 1.0; box2 2.0 5.0 (-1.0) 2.0 ] in
  binary_run "diff" ~seed:61 ~polys
    ~plan:
      (match List.map (leaf ~eps:(eps /. 3.0) ~delta:0.1) polys with
      | [ a; b ] -> Plan.diff_ ~eps ~delta a b
      | _ -> assert false)
    ~interp:(fun o -> Diff.diff o.(0) o.(1))

let kernels () =
  capture "kernels" (fun () ->
      let rng = Rng.create 5 in
      let start = [| 0.2; 0.2 |] in
      (* Hit-and-run: the generic chord sampler, the batch kernel, and
         the DFK phases of a volume estimate. *)
      ignore
        (Hit_and_run.sample rng ~chord:(Hit_and_run.polytope_chord triangle) ~start ~steps:40);
      ignore
        (Hit_and_run.sample_polytope_batch (Array.init 3 (fun i -> Rng.create (20 + i))) triangle
           ~starts:(Array.make 3 start) ~steps:25);
      ignore (Volume.estimate rng ~eps:0.5 ~delta:0.5 ~budget:(Volume.Practical 8) triangle);
      (* Grid walk: the oracle walk inside a lattice-walk volume
         estimate, and the batch lattice walk. *)
      ignore
        (Volume.estimate rng ~eps:0.5 ~delta:0.5 ~sampler:Volume.Grid_walk
           ~budget:(Volume.Practical 4) ~walk_steps:30 triangle);
      ignore
        (Walk.sample_polytope_batch
           (Array.init 2 (fun i -> Rng.create (30 + i)))
           ~grid:(Grid.make ~step:0.05 ~dim:2)
           triangle ~starts:(Array.make 2 start) ~steps:40);
      (* Ball walk, one chain and batched. *)
      ignore (Ball_walk.sample_polytope rng triangle ~start ~steps:40 ());
      ignore
        (Ball_walk.sample_polytope_batch
           (Array.init 2 (fun i -> Rng.create (40 + i)))
           triangle ~starts:(Array.make 2 start) ~steps:30 ());
      (* Rejection: a single draw, a batch, and a collapsing rate. *)
      let lo = [| 0.0; 0.0 |] and hi = [| 1.0; 1.0 |] in
      let mem x = P.mem triangle x in
      ignore (Rejection.sample rng ~lo ~hi ~mem ~max_attempts:100);
      ignore (Rejection.sample_many rng ~lo ~hi ~mem ~count:20 ~max_attempts:1000);
      ignore
        (Rejection.sample_many rng ~lo ~hi
           ~mem:(fun x -> x.(0) +. x.(1) <= 0.05)
           ~count:5 ~max_attempts:1500);
      (* Chernoff: the fixed-size, stopping-rule and median-of-means
         estimators. *)
      let coin r = Rng.float r < 0.3 in
      ignore (Chernoff.estimate_fraction rng ~samples:500 coin);
      ignore (Chernoff.estimate_fraction_stopping rng ~eps:0.3 ~delta:0.2 ~p_floor:0.1 coin);
      ignore
        (Chernoff.median_of_means rng ~blocks:9 ~block_size:200 (fun r ->
             if coin r then 1.0 else 0.0)))

(* Every budget runs dry: the exhausted, stuck and zero-acceptance
   warnings, each with its counter. *)
let starved () =
  capture "starved" (fun () ->
      let rng = Rng.create 9 in
      let dead =
        Observable.make ~dim:2 ~mem:(fun _ -> false)
          ~sample:(fun _ _ -> None)
          ~volume:(fun _ ~gamma:_ ~eps:_ ~delta:_ -> 1.0)
          ()
      in
      ignore (Observable.sample (Union.union [ dead; dead ]) rng params);
      ignore (Observable.volume (Union.union [ dead; dead ]) rng ~gamma ~eps ~delta);
      ignore (Observable.sample (Inter.inter [ dead; dead ]) rng params);
      ignore (Observable.sample (Diff.diff dead dead) rng params);
      ignore
        (Chernoff.estimate_fraction_stopping rng ~eps:0.3 ~delta:0.2 ~p_floor:0.1 ~max_trials:50
           (fun _ -> false));
      let lo = [| 0.0; 0.0 |] and hi = [| 1.0; 1.0 |] in
      ignore (Rejection.sample rng ~lo ~hi ~mem:(fun _ -> false) ~max_attempts:30);
      ignore (Rejection.sample_many rng ~lo ~hi ~mem:(fun _ -> false) ~count:3 ~max_attempts:30);
      ignore
        (Hit_and_run.sample rng ~chord:(fun _ _ -> None) ~start:[| 0.2; 0.2 |] ~steps:20);
      (* A flat body: every chord is a point. *)
      let flat = P.box [| 0.0; 0.0 |] [| 1.0; 0.0 |] in
      ignore
        (Hit_and_run.sample_polytope_batch
           (Array.init 2 (fun i -> Rng.create (50 + i)))
           flat ~starts:(Array.make 2 [| 0.5; 0.0 |]) ~steps:20);
      (* A grid step wider than the body: every lattice move leaves it. *)
      let speck = P.box [| 0.0; 0.0 |] [| 0.01; 0.01 |] in
      ignore
        (Walk.sample_polytope_batch [| Rng.create 60 |] ~grid:(Grid.make ~step:0.5 ~dim:2) speck
           ~starts:[| [| 0.0; 0.0 |] |] ~steps:100);
      (* One sample per phase: some phase misses its inner ball. *)
      ignore
        (Volume.estimate (Rng.create 3) ~eps:0.5 ~delta:0.5 ~budget:(Volume.Practical 1)
           ~walk_steps:2 triangle);
      (* Four draws per chain cannot pass the convergence verdict. *)
      ignore (Diag_run.run ~chains:2 ~samples_per_chain:4 (Rng.create 4) triangle);
      ignore (Ball_walk.sample_polytope rng triangle ~start:[| 0.2; 0.2 |] ~steps:20 ~radius:50.0 ());
      ignore
        (Ball_walk.sample_polytope_batch
           (Array.init 2 (fun i -> Rng.create (70 + i)))
           triangle ~starts:(Array.make 2 [| 0.2; 0.2 |]) ~steps:20 ~radius:50.0 ()))

(* A compiled union whose membership oracle rejects every draw (each
   piece is paired with a relation away from its body): the VM's
   exhaust handler and its failed root. *)
let starved_vm () =
  let rng = Rng.create 8 in
  let far =
    match Flight.parse_relation ~vars:[ "x"; "y" ] "x >= 10 and x <= 11 and y >= 0 and y <= 1" with
    | Ok r -> r
    | Error m -> failwith m
  in
  let boxes = [ box2 0.0 1.0 0.0 1.0; box2 2.0 3.0 0.0 1.0 ] in
  let preps =
    Array.of_list
      (List.map (fun p -> Option.get (Convex_obs.prepare ~config:cfg ~relation:far rng p)) boxes)
  in
  let plan =
    Plan.finalize ~gamma ~eps ~delta ~task:(Plan.Sample 1)
      (Plan.union_ ~eps ~delta (List.map (leaf ~eps:(eps /. 3.0) ~delta:(delta /. 8.0)) boxes))
  in
  match Vm.compile ~plan ~pieces:preps () with
  | Ok prog ->
      capture "starved.vm" ~rows:(plan_rows plan) (fun () ->
          try ignore (Vm.sample_one prog rng) with Observable.Estimation_failed _ -> ())
  | Error m -> failwith m

let document () =
  with_stores_on (fun () ->
      let engines = [ "interp"; "vm"; "vm-opt" ] in
      let runs =
        List.map union_run engines
        @ [ inter_run (); diff_run (); kernels (); starved (); starved_vm () ]
      in
      J.to_string (J.Obj [ ("schema", J.Str "spatialdb-instrumentation-golden/1"); ("runs", J.Obj runs) ]))
