(* The four closed-loop workloads: set-up from the seed, the requests
   each one sends, and the checks each answer must pass.  One client
   sends the next request when the previous one returns. *)

open Scdb_gis
module Plan = Scdb_plan.Plan
module Vm = Scdb_vm.Vm
module Tel = Scdb_telemetry.Telemetry
module Audit = Scdb_audit.Audit

let now = Tel.Clock.now
let span = Tracer.span

(* Request shapes.  [full] is what the benchmark measures; [smoke]
   runs every code path and check at a fraction of the cost. *)
type profile = {
  generators : Convex_obs.config;  (** generators built outside [Flight.run] *)
  parcels : int * int;  (** rows and columns of the parcel grid *)
  dims : int * int * int list;  (** simplices: cold-sample, bulk-draw, volume *)
  n_cold : int;  (** points per cold-sample request *)
  eps : float;  (** cold-sample, bulk-draw and volume accuracy *)
  delta : float;
  batches : int * int * int;  (** bulk-draw: union/interp, union/vm-opt, simplex *)
  gis_eps : float;  (** gis-ops ε = δ *)
  gis_n : int * int;  (** gis-ops points: projection, difference *)
  mirror : int * float;  (** mirror check: points and ε = δ *)
  setups : int;  (** least set-ups per run; [setup_s] is their median *)
  setup_seconds : float;  (** up to 3·[setups] set-ups while their total stays below this *)
}

let full =
  {
    generators = Staged.flight_config;
    parcels = (3, 3);
    dims = (6, 8, [ 3; 4 ]);
    n_cold = 200;
    eps = 0.2;
    delta = 0.1;
    batches = (1000, 20000, 50);
    gis_eps = 0.5;
    gis_n = (200, 50);
    mirror = (3, 0.5);
    setups = 3;
    setup_seconds = 2.0;
  }

(* Estimation cost hardly depends on ε: it is set by the fixed
   per-phase sample budget, so the smoke profile shrinks that budget
   and the relations instead. *)
let smoke =
  {
    generators =
      { Staged.flight_config with Convex_obs.volume_budget = Scdb_sampling.Volume.Practical 100 };
    parcels = (1, 2);
    dims = (3, 3, [ 2; 3 ]);
    n_cold = 10;
    eps = 0.5;
    delta = 0.5;
    batches = (20, 200, 2);
    gis_eps = 0.9;
    gis_n = (10, 5);
    mirror = (2, 0.9);
    setups = 1;
    setup_seconds = 0.0;
  }

type answer = { points : Vec.t list; estimate : float; draws : int  (** root rng draws *) }

type check =
  | Members of { mem : Vec.t -> bool; cells : Corpus.cells option; count : int }
  | Truth of { truth : float; eps : float }

type config = {
  label : string;  (** relation or query / engine *)
  exec : traced:bool -> seed:int -> (answer, string) result;
  check : check;
}

type workload = {
  name : string;
  setup : profile -> seed:int -> config array;
  trace_rounds : int;  (** rounds of the traced segment under [full] *)
}

let engines = [ "interp"; "vm-opt" ]
let gamma = Staged.gamma
let mem_of r = Relation.mem_float ~slack:1e-9 r

let members ~count r =
  Members
    { mem = mem_of r; cells = (if Relation.dim r = 2 then Some (Corpus.cells_of r) else None); count }

(* ------------------------------------------------------------------ *)
(* cold-sample: one Flight.run per request, as `spatialdb sample`.     *)
(* ------------------------------------------------------------------ *)

let cold_setup p ~seed =
  let d, _, _ = p.dims in
  let rels =
    [
      Corpus.triangle (); Corpus.union (); Corpus.parcels seed p.parcels; Corpus.simplex d; Corpus.fm ();
    ]
  in
  let args (r : Corpus.rel) engine ~n ~eps ~delta ~seed =
    let vars = r.Corpus.vars and formula = r.Corpus.text in
    { Flight.vars; formula; n; seed; eps; delta; method_ = "walk"; engine }
  in
  let mirror_n, mirror_eps = p.mirror in
  List.iter
    (fun (r : Corpus.rel) ->
      List.iter
        (fun engine ->
          Staged.mirror_check ~label:r.Corpus.label
            (args r engine ~n:mirror_n ~eps:mirror_eps ~delta:mirror_eps
               ~seed:(Corpus.sub_seed seed r.Corpus.label)))
        engines)
    rels;
  Array.of_list
    (List.concat_map
       (fun (r : Corpus.rel) ->
         List.map
           (fun engine ->
             let exec ~traced ~seed =
               let a = args r engine ~n:p.n_cold ~eps:p.eps ~delta:p.delta ~seed in
               if traced then
                 Result.map
                   (fun (points, rng) -> { points; estimate = nan; draws = Rng.draw_count rng })
                   (Staged.sample a)
               else
                 Result.map
                   (fun (o : Flight.outcome) ->
                     { points = o.Flight.points; estimate = nan; draws = Rng.draw_count o.Flight.rng })
                   (Flight.run a)
             in
             let check = members ~count:p.n_cold r.Corpus.relation in
             { label = r.Corpus.label ^ "/" ^ engine; exec; check })
           engines)
       rels)

(* ------------------------------------------------------------------ *)
(* bulk-draw: fixed-size batches from generators prepared in set-up.   *)
(* ------------------------------------------------------------------ *)

let bulk_setup p ~seed =
  let union_batch_interp, union_batch_vm, simplex_batch = p.batches in
  let _, d, _ = p.dims in
  let union = Corpus.union () and simplex = Corpus.simplex d in
  let config = p.generators in
  let pair (r : Corpus.rel) engine batch =
    let label = r.Corpus.label ^ "/" ^ engine in
    let rng = Rng.create (Corpus.sub_seed seed label) in
    let eps = p.eps and delta = p.delta and task = Plan.Sample batch in
    let draw =
      match engine with
      | "interp" -> (
          match
            Plan_exec.observable_of_relation ~config ~gamma ~eps ~delta ~task rng r.Corpus.relation
          with
          | None -> failwith (label ^ ": " ^ Staged.empty)
          | Some (_, obs) ->
              let params = Params.make ~gamma ~eps ~delta () in
              fun k -> Observable.sample_many obs rng params ~n:k)
      | _ -> (
          match
            Plan_exec.compiled_of_relation ~config ~optimize:true ~gamma ~eps ~delta ~task rng
              r.Corpus.relation
          with
          | None -> failwith (label ^ ": " ^ Staged.empty)
          | Some (_, Error m) -> failwith (label ^ ": " ^ m)
          | Some (_, Ok prog) -> fun k -> Vm.sample_many prog rng ~n:k)
    in
    (* The first draw runs the union's lazy weight estimation: set-up
       pays it, the batches do not. *)
    ignore (draw 1);
    let exec ~traced:_ ~seed:_ =
      let d0 = Rng.draw_count rng in
      let points = span "draw.rest" (fun () -> draw batch) in
      Ok { points; estimate = nan; draws = Rng.draw_count rng - d0 }
    in
    { label; exec; check = members ~count:batch r.Corpus.relation }
  in
  [|
    pair union "interp" union_batch_interp;
    pair union "vm-opt" union_batch_vm;
    pair simplex "interp" simplex_batch;
    pair simplex "vm-opt" simplex_batch;
  |]

(* ------------------------------------------------------------------ *)
(* volume: (ε,δ) volume of a relation, checked against exact truth.    *)
(* ------------------------------------------------------------------ *)

let volume_setup p ~seed =
  let _, _, dims = p.dims in
  let disjoint r = (r, Corpus.disjoint_truth r) in
  let cases =
    List.map disjoint [ Corpus.triangle (); Corpus.union (); Corpus.parcels seed p.parcels ]
    @ List.map (fun d -> (Corpus.simplex d, Corpus.simplex_truth d)) dims
  in
  let eps = p.eps and delta = p.delta and config = p.generators in
  Array.of_list
    (List.map
       (fun ((r : Corpus.rel), truth) ->
         let exec ~traced ~seed =
           let rng = Rng.create seed in
           let built =
             if traced then Staged.observable ~config ~eps ~delta ~task:Plan.Volume rng r.Corpus.relation
             else
               match
                 Plan_exec.observable_of_relation ~config ~gamma ~eps ~delta ~task:Plan.Volume rng
                   r.Corpus.relation
               with
               | None -> Error Staged.empty
               | Some (_, obs) -> Ok obs
           in
           Result.map
             (fun obs ->
               let estimate =
                 span "core.volume" (fun () -> Observable.volume obs ~gamma rng ~eps ~delta)
               in
               { points = []; estimate; draws = Rng.draw_count rng })
             built
         in
         { label = r.Corpus.label; exec; check = Truth { truth; eps } })
       cases)

(* ------------------------------------------------------------------ *)
(* gis-ops: FO+LIN queries over a land-use instance, via Eval.compile. *)
(* ------------------------------------------------------------------ *)

type gis_task = Gis_volume | Gis_sample of int

let gis_setup p ~seed =
  let schema = Synth.land_use_schema and vars = [ "x"; "y" ] in
  let inter = "Parcels(x, y) /\\ Lakes(x, y)" and diff = "Parcels(x, y) /\\ ~Lakes(x, y)" in
  (* The two terrain prisms over the parcels of [0,3]×[0,6]: a union of
     two projections.  All nine cost ~7 s a request, mostly the union
     weights' fiber-compensated volume estimates. *)
  let proj = "exists z. Terrain(x, y, z) /\\ z >= 1 /\\ x <= 3 /\\ y <= 6" in
  let inst = Corpus.land_use seed in
  let grid text =
    match
      Aggregate.volume (Rng.create 0) inst ~free_dim:2 (Aggregate.Grid 0.05)
        (Query.parse ~schema ~vars text)
    with
    | Ok v -> v
    | Error m -> failwith (text ^ ": " ^ m)
  in
  let inter_truth = grid inter in
  let get = Instance.get_exn inst in
  let parcels = get "Parcels" and lakes = get "Lakes" in
  (* Parcels minus their overlap with the lakes: the grid count of the
     difference itself needs a ~1000-tuple DNF and takes seconds. *)
  let diff_truth = Corpus.finite_truth "diff" (grid "Parcels(x, y)" -. inter_truth) in
  let inter_truth = Corpus.finite_truth "inter" inter_truth in
  let eps = p.gis_eps and config = p.generators in
  let n_proj, n_diff = p.gis_n in
  let query label text task check =
    let exec ~traced:_ ~seed =
      let rng = Rng.create seed in
      let q = span "constr.parse" (fun () -> Query.parse ~schema ~vars text) in
      match span "gis.compile" (fun () -> Eval.compile ~config rng inst ~free_dim:2 q) with
      | Error m -> Error m
      | Ok o -> (
          match task with
          | Gis_volume ->
              let estimate =
                span "core.volume" (fun () -> Observable.volume o ~gamma rng ~eps ~delta:eps)
              in
              Ok { points = []; estimate; draws = Rng.draw_count rng }
          | Gis_sample n ->
              let params = Params.make ~gamma ~eps ~delta:eps () in
              let first = span "draw.first" (fun () -> Observable.sample_many o rng params ~n:1) in
              let rest = span "draw.rest" (fun () -> Observable.sample_many o rng params ~n:(n - 1)) in
              Ok { points = first @ rest; estimate = nan; draws = Rng.draw_count rng })
    in
    { label; exec; check }
  in
  let proj_relation = Eval.symbolic inst ~free_dim:2 (Query.parse ~schema ~vars proj) in
  [|
    query "inter/volume" inter Gis_volume (Truth { truth = inter_truth; eps });
    query "diff/volume" diff Gis_volume (Truth { truth = diff_truth; eps });
    query "project/sample" proj (Gis_sample n_proj)
      (Members { mem = mem_of proj_relation; cells = None; count = n_proj });
    query "diff/sample" diff (Gis_sample n_diff)
      (Members
         { mem = (fun x -> mem_of parcels x && not (mem_of lakes x)); cells = None; count = n_diff });
  |]

(* Why each workload exists (BENCHMARK.json carries the same reasons):
   - cold-sample: ad-hoc sample queries as users pay for them; parse,
     per-tuple preparation and union weights dominate, the draw loop is
     under 5% of a request;
   - bulk-draw: the steady-state draw loop alone, so a kernel or VM
     change shows here and not in cold-sample;
   - volume: the same sampling layer producing the answer, with exact
     truths to hold accuracy against;
   - gis-ops: the only path through Eval.compile, difference and
     projection.
   The traced segment's rounds take about a third of a 25 s run. *)
let all =
  [
    { name = "cold-sample"; setup = cold_setup; trace_rounds = 3 };
    { name = "bulk-draw"; setup = bulk_setup; trace_rounds = 150 };
    { name = "volume"; setup = volume_setup; trace_rounds = 2 };
    { name = "gis-ops"; setup = gis_setup; trace_rounds = 2 };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* ------------------------------------------------------------------ *)
(* The closed loop                                                     *)
(* ------------------------------------------------------------------ *)

type request = {
  cfg : int;
  latency : float;
  failure : string option;
  rel_err : float option;  (** volume answers *)
  draws : int;
}

type segment = {
  requests : request list;
  rounds : float list;  (** per round: the sum of its request latencies *)
  heap_words : int;  (** largest major heap seen between two requests *)
  hits : int array option array;  (** per config: cell hits of its points *)
  elapsed : float;
}

let judge configs hits k latency (result : (answer, string) result) =
  let base = { cfg = k; latency; failure = None; rel_err = None; draws = 0 } in
  match result with
  | Error m -> { base with failure = Some m }
  | Ok a -> (
      let base = { base with draws = a.draws } in
      match configs.(k).check with
      | Members { mem; cells; count } ->
          (match (cells, hits.(k)) with
          | Some c, Some h ->
              List.iter
                (fun pt -> Option.iter (fun j -> h.(j) <- h.(j) + 1) (Corpus.cell_of c pt))
                a.points
          | _ -> ());
          if List.length a.points <> count then
            let m = Printf.sprintf "%d points, asked for %d" (List.length a.points) count in
            { base with failure = Some m }
          else if not (List.for_all mem a.points) then
            { base with failure = Some "a point fails Relation.mem_float" }
          else base
      | Truth { truth; _ } ->
          if Float.is_finite a.estimate && a.estimate > 0.0 then
            { base with rel_err = Some (Float.abs ((a.estimate /. truth) -. 1.0)) }
          else { base with failure = Some (Printf.sprintf "estimate %g" a.estimate) })

(* Run whole rounds (one request per configuration) until [stop].  The
   request index, not the clock, picks each request's seed, so a run of
   [k] rounds always sends the same [k·C] requests. *)
let run_segment ~workload ~seed ~traced configs ~stop =
  let c = Array.length configs in
  let hits =
    Array.map
      (fun cfg ->
        match cfg.check with
        | Members { cells = Some cl; _ } -> Some (Array.make cl.Corpus.count 0)
        | _ -> None)
      configs
  in
  let requests = ref [] and rounds = ref [] and heap_words = ref 0 in
  let t_start = now () in
  let round = ref 0 and last = ref 0.0 in
  while not (stop ~round:!round ~elapsed:(now () -. t_start) ~last:!last) do
    let r0 = now () and busy = ref 0.0 in
    for k = 0 to c - 1 do
      let i = (!round * c) + k in
      let seed = Corpus.request_seed ~seed ~workload i in
      let exec () = configs.(k).exec ~traced ~seed in
      let t0 = now () in
      (* An exception a request lets escape fails that request only. *)
      let result =
        match if traced then Tracer.request i exec else exec () with
        | r -> r
        | exception Observable.Estimation_failed m -> Error m
        | exception e -> Error (Printexc.to_string e)
      in
      let latency = now () -. t0 in
      busy := !busy +. latency;
      heap_words := max !heap_words (Gc.quick_stat ()).Gc.heap_words;
      requests := judge configs hits k latency result :: !requests
    done;
    rounds := !busy :: !rounds;
    last := now () -. r0;
    incr round
  done;
  {
    requests = List.rev !requests;
    rounds = List.rev !rounds;
    heap_words = !heap_words;
    hits;
    elapsed = now () -. t_start;
  }

let fixed_rounds n ~round ~elapsed:_ ~last:_ = round >= n

(* Start another round only while it should still end within the
   budget, judged by the last round's length. *)
let timed seconds ~round ~elapsed ~last = round >= 1 && elapsed +. last > seconds

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let latencies seg k = List.filter_map (fun r -> if r.cfg = k then Some r.latency else None) seg.requests

(* Geometric mean over configurations of each one's median latency:
   every configuration moves it, and no boundary between two
   configurations' latency bands can make it jump. *)
let req_p50 configs seg =
  Stats.geomean (List.init (Array.length configs) (fun k -> Stats.median (latencies seg k)))

(* Requests per second of serving time, from the median round: a
   round holds one request of every configuration, so this weighs
   configurations by their cost, and one slow round cannot move it. *)
let req_per_s configs seg = Stats.ratio (float_of_int (Array.length configs)) (Stats.median seg.rounds)

let failed seg = List.length (List.filter (fun r -> r.failure <> None) seg.requests)

type accuracy = {
  rel_err_p90 : float;
  contract_miss_frac : float;
  cell_tv : float;
  fail_frac : float;
  problems : string list;  (** failed checks; empty when correct *)
}

let accuracy configs seg ~eps ~delta =
  let n = List.length seg.requests in
  let errs = List.filter_map (fun r -> r.rel_err) seg.requests in
  let misses =
    List.length
      (List.filter
         (fun r ->
           match (r.rel_err, configs.(r.cfg).check) with
           | Some e, Truth { eps; _ } -> e > eps
           | _ -> false)
         seg.requests)
  in
  let tvs =
    List.filter_map
      (fun k ->
        match (configs.(k).check, seg.hits.(k)) with
        | Members { cells = Some c; _ }, Some h when c.Corpus.count > 0 ->
            Some (configs.(k).label, Corpus.cell_tv c h)
        | _ -> None)
      (List.init (Array.length configs) Fun.id)
  in
  let fails = failed seg in
  let problems =
    List.filter_map
      (fun r ->
        Option.map (fun m -> Printf.sprintf "request %s failed: %s" configs.(r.cfg).label m) r.failure)
      seg.requests
    @ (if errs = [] then []
       else
         (* Misses are allowed at rate δ; fail only when even the
            99.8% lower confidence bound on the miss rate exceeds it. *)
         let lo, _ = Audit.clopper_pearson ~confidence:0.998 ~hits:misses ~runs:(List.length errs) () in
         if lo > delta then
           [
             Printf.sprintf "%d of %d estimates miss eps, more than delta = %g allows" misses
               (List.length errs) delta;
           ]
         else [])
    @ List.filter_map
        (fun (label, (tv, noise)) ->
          (* Definition 2.2 allows cell frequencies within a factor
             (1+ε) of uniform; beyond that and the sampling noise the
             generator is not uniform. *)
          if tv > (eps /. 2.0) +. (4.0 *. noise) then
            Some (Printf.sprintf "%s: cell total variation %.3f (noise level %.3f)" label tv noise)
          else None)
        tvs
  in
  {
    rel_err_p90 = Stats.p90 errs;
    contract_miss_frac = Stats.ratio (float_of_int misses) (float_of_int (List.length errs));
    cell_tv = Stats.mean (List.map (fun (_, (tv, _)) -> tv) tvs);
    fail_frac = Stats.ratio (float_of_int fails) (float_of_int n);
    problems;
  }

(* The peak is taken while serving, not over the process: set-up's
   own garbage (exact truths, repeated set-ups) must not hide it. *)
let peak_heap_mb seg = float_of_int (seg.heap_words * (Sys.word_size / 8)) /. 1e6

(* Draws per second of each configuration that draws points, from its
   median request latency; empty for volume-only workloads. *)
let draw_rates configs seg =
  List.filter_map
    (fun k ->
      match configs.(k).check with
      | Members { count; _ } ->
          Some (configs.(k).label, float_of_int count /. Stats.median (latencies seg k))
      | Truth _ -> None)
    (List.init (Array.length configs) Fun.id)

(* Telemetry ratios over the traced segment, each with its base. *)
let counter_ratios ~n_req ~prepares ~rng_draws =
  let c name = float_of_int (Option.value (Tel.counter_value name) ~default:0) in
  let per_req x = Stats.ratio x (float_of_int n_req) in
  let accept kind =
    let trials = c (kind ^ ".trials") in
    Stats.ratio (trials -. c (kind ^ ".miss") -. c (kind ^ ".child_failures")) trials
  in
  [
    ("lp.pivots_per_prepare", "count", Stats.ratio (c "simplex.pivots") prepares);
    ("sampling.hr_steps_per_req", "count", per_req (c "hit_and_run.steps"));
    ("sampling.volume_phases_per_req", "count", per_req (c "volume.phases"));
    ("sampling.volume_samples_per_req", "count", per_req (c "volume.samples"));
    ("core.union.kl_accept", "1", Stats.ratio (c "union.volume.accepted") (c "union.volume.trials"));
    ("core.union.trials_per_draw", "count", Stats.ratio (c "union.trials") (c "union.samples"));
    ("core.inter.accept", "1", accept "inter");
    ("core.diff.accept", "1", accept "diff");
    ("vm.steps_per_draw", "count", Stats.ratio (c "vm.steps") (c "vm.draws"));
    (* Only vm-opt's rejection-box leaves run [Rejection.sample] here. *)
    ("vm.rejection_accept", "1", Stats.ratio (c "rejection.accepted") (c "rejection.attempts"));
    ("rng.draws_per_req", "count", per_req rng_draws);
  ]

let counter_ratio_names =
  List.map (fun (n, _, _) -> n) (counter_ratios ~n_req:0 ~prepares:0.0 ~rng_draws:0.0)
