module FM = Scdb_qe.Fourier_motzkin
module Trace = Scdb_trace.Trace
module Tel = Scdb_telemetry.Telemetry
module Log = Scdb_log.Log
module Flightrec = Scdb_log.Flightrec

type args = {
  vars : string list;
  formula : string;
  n : int;
  seed : int;
  eps : float;
  delta : float;
  method_ : string;
  engine : string;
}

type outcome = {
  points : Vec.t list;
  relation : Relation.t;
  rng : Rng.t;
  plan : Scdb_plan.Plan.t;
  program : Scdb_vm.Vm.t option;
  profile : Scdb_profile.Profile.t option;
}

let ( let* ) = Result.bind

(* The CLI's fixed grid parameter: replay must reproduce it exactly,
   so it lives here rather than in bin/. *)
let gamma = 0.05

let methods = List.map fst Convex_obs.samplers
let engines = [ "interp"; "vm"; "vm-opt" ]

let config_of_method m =
  match List.assoc_opt m Convex_obs.samplers with
  | Some sampler -> Ok { Convex_obs.practical_config with Convex_obs.sampler }
  | None -> Error ("unknown method " ^ m)

let check_engine e = if List.mem e engines then Ok e else Error ("unknown engine " ^ e)

let split_vars s = String.split_on_char ',' s |> List.map String.trim |> List.filter (( <> ) "")

let empty_relation = "relation is empty or lower-dimensional"
let unbounded_relation = "relation is unbounded"

let prepare ?config ~gamma ~eps ~delta ~task rng relation =
  match Plan_exec.prepare ?config ~gamma ~eps ~delta ~task rng relation with
  | Some p -> Ok p
  | None -> Error empty_relation
  | exception Convex_obs.Unbounded -> Error unbounded_relation

let parse_formula ~vars text =
  Trace.span "formula.parse" @@ fun () ->
  match Parser.parse ~vars text with
  | f -> Ok f
  | exception Parser.Parse_error m -> Error ("parse error: " ^ m)
  | exception Lexer.Lex_error (m, pos) -> Error (Printf.sprintf "lex error at %d: %s" pos m)

let parse_relation ~vars text =
  if vars = [] then Error "no variables given"
  else
    let* f = parse_formula ~vars text in
    let f =
      if Formula.is_quantifier_free f then f
      else Trace.span "qe.eliminate" (fun () -> FM.eliminate f)
    in
    Ok (Relation.of_formula ~dim:(List.length vars) f)

type engine = {
  plan : Scdb_plan.Plan.t;
  draw : Rng.t -> int -> Vec.t list;
  observable : Observable.t;
  program : Scdb_vm.Vm.t option;
  profile : Scdb_profile.Profile.t option;
}

let start_engine ?profile_mode ?executor ~engine ~eps ~delta prepared =
  let optimize = engine = "vm-opt" in
  match Option.value executor ~default:engine with
  | "interp" ->
      let prepared = if optimize then Plan_exec.optimize prepared else prepared in
      let obs = Plan_exec.observe prepared in
      let params = Params.make ~gamma ~eps ~delta () in
      let draw rng n = Observable.sample_many obs rng params ~n in
      Ok { plan = prepared.Plan_exec.plan; draw; observable = obs; program = None; profile = None }
  | _ -> (
      match Plan_exec.compile ~optimize prepared with
      | Error m -> Error ("plan does not compile: " ^ m)
      | Ok prog ->
          let profile =
            Option.map (fun mode -> Scdb_profile.Profile.create ~mode prog) profile_mode
          in
          let draw =
            match profile with
            | None -> fun rng n -> Scdb_vm.Vm.sample_many prog rng ~n
            | Some pr -> fun rng n -> Scdb_profile.Profile.sample_many pr rng ~n
          in
          Ok
            {
              plan = Scdb_vm.Vm.plan prog;
              draw;
              observable = Scdb_vm.Vm.mirror prog;
              program = Some prog;
              profile;
            })

let run ?(track = false) ?(progress = false) ?(ticker = false) ?overrun_factor ?profile_mode
    ?executor a =
  let* config = config_of_method a.method_ in
  let* engine = check_engine a.engine in
  let* executor = check_engine (Option.value executor ~default:engine) in
  let* () =
    if profile_mode <> None && executor = "interp" then
      Error "profiling requires a compiled engine (--engine vm or vm-opt)"
    else Ok ()
  in
  let* relation = parse_relation ~vars:a.vars a.formula in
  if track then begin
    Rng.Provenance.reset ();
    Rng.Provenance.set_tracking true
  end;
  let rng = Rng.create a.seed in
  let task = Scdb_plan.Plan.Sample a.n in
  (* Every engine shares the parse, the preprocessing rng draws and the
     plan; they differ only in how the n draws are executed. *)
  let* prepared = prepare ~config ~gamma ~eps:a.eps ~delta:a.delta ~task rng relation in
  let* e = start_engine ?profile_mode ~executor ~engine ~eps:a.eps ~delta:a.delta prepared in
  let plan = e.plan in
  (* Profiled runs arm the bus even without --progress so the per-node
     actual column of the attribution table is populated; the stderr
     ticker is separate so concurrent contexted jobs can arm their
     buses without fighting over the terminal. *)
  let armed = progress || e.profile <> None in
  if armed then Plan_exec.arm ?overrun_factor plan;
  if ticker then Scdb_progress.Progress.start_ticker ();
  let finish_progress () = if armed then Scdb_progress.Progress.stop () in
  if Log.would_log Log.Info then
    Log.info "sample.run"
      [
        Log.str "formula" a.formula;
        Log.str "method" a.method_;
        Log.str "engine" engine;
        Log.int "n" a.n;
        Log.int "seed" a.seed;
        Log.float "eps" a.eps;
        Log.float "delta" a.delta;
      ];
  match e.draw rng a.n with
  | points ->
      finish_progress ();
      if Log.would_log Log.Info then
        Log.info "sample.done"
          [ Log.int "points" (List.length points); Log.int "draws" (Rng.draw_count rng) ];
      Ok { points; relation; rng; plan; program = e.program; profile = e.profile }
  | exception Observable.Estimation_failed m ->
      finish_progress ();
      Error m

let to_flightrec a (o : outcome) =
  {
    Flightrec.command = "sample";
    args =
      [
        ("vars", String.concat "," a.vars);
        ("formula", a.formula);
        ("n", string_of_int a.n);
        ("eps", Printf.sprintf "%.17g" a.eps);
        ("delta", Printf.sprintf "%.17g" a.delta);
        ("method", a.method_);
        ("engine", a.engine);
      ];
    seed = a.seed;
    samples = o.points;
    lineage = Rng.Provenance.snapshot ();
    telemetry = (if Tel.enabled () then Some (Tel.dump ~only_nonzero:true ()) else None);
    log_tail = List.map Scdb_json.Json.parse (Log.tail ());
  }

let args_of_flightrec (r : Flightrec.t) =
  let* () =
    if r.Flightrec.command = "sample" then Ok ()
    else Error (Printf.sprintf "cannot replay %S records (only \"sample\")" r.Flightrec.command)
  in
  let req k = Option.to_result ~none:("record is missing argument " ^ k) (Flightrec.arg r k) in
  let* vars_s = req "vars" in
  let* formula = req "formula" in
  let* n_s = req "n" in
  let* eps_s = req "eps" in
  let* delta_s = req "delta" in
  let* n = Option.to_result ~none:"malformed n" (int_of_string_opt n_s) in
  let* eps = Option.to_result ~none:"malformed eps" (float_of_string_opt eps_s) in
  let* delta = Option.to_result ~none:"malformed delta" (float_of_string_opt delta_s) in
  let vars = split_vars vars_s in
  let method_ = Option.value ~default:"walk" (Flightrec.arg r "method") in
  let engine = Option.value ~default:"interp" (Flightrec.arg r "engine") in
  Ok { vars; formula; n; seed = r.Flightrec.seed; eps; delta; method_; engine }

let total_draws lineage =
  List.fold_left (fun acc (i : Rng.Provenance.info) -> acc + i.Rng.Provenance.draws) 0 lineage

let replay ?engine (r : Flightrec.t) =
  let* a = args_of_flightrec r in
  let* o = run ~track:true ?executor:engine a in
  ignore o.rng;
  let* n = Flightrec.compare_samples ~recorded:r.Flightrec.samples ~replayed:o.points in
  (* The sample stream is the contract, but the draw totals are a
     cheap second opinion: matching points with different draw counts
     means some non-emitting code path changed. *)
  let recorded = total_draws r.Flightrec.lineage in
  let replayed = total_draws (Rng.Provenance.snapshot ()) in
  if r.Flightrec.lineage <> [] && recorded <> replayed then
    Error
      (Printf.sprintf
         "sample stream matches but total RNG draws differ: recorded %d, replayed %d" recorded
         replayed)
  else Ok n
