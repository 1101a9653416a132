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
}

let ( let* ) = Result.bind

(* The CLI's fixed grid parameter: replay must reproduce it exactly,
   so it lives here rather than in bin/. *)
let gamma = 0.05

(* The CLI's [--eps]/[--delta] defaults, which also price the GIS
   evaluator's plans. *)
let default_eps = 0.2
let default_delta = 0.1

let methods = List.map fst Convex_obs.samplers
let engines = [ "interp"; "vm-opt" ]

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
  | exception Scdb_polytope.Volume_exact.Unbounded -> Error unbounded_relation

let parse_formula ~vars text =
  let rec duplicate = function
    | [] -> None
    | v :: rest -> if List.mem v rest then Some v else duplicate rest
  in
  match duplicate vars with
  | Some v -> Error (Printf.sprintf "duplicate variable %s in --vars" v)
  | None -> (
      Trace.span "formula.parse" @@ fun () ->
      match Parser.parse ~vars text with
      | f -> Ok f
      | exception Parser.Parse_error m -> Error ("parse error: " ^ m)
      | exception Parser.Lex_error (m, pos) -> Error (Printf.sprintf "lex error at %d: %s" pos m))

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
}

let start_engine ~engine ~eps ~delta prepared =
  let prepared = if engine = "vm-opt" then Plan_exec.optimize prepared else prepared in
  let obs = Plan_exec.observe prepared in
  let params = Params.make ~gamma ~eps ~delta () in
  let draw rng n = Observable.sample_many obs rng params ~n in
  { plan = prepared.Plan_exec.plan; draw; observable = obs }

let run ?(progress = false) a =
  let* () = if a.n < 0 then Error (Printf.sprintf "n must be >= 0 (got %d)" a.n) else Ok () in
  let* config = config_of_method a.method_ in
  let* engine = check_engine a.engine in
  let* relation = parse_relation ~vars:a.vars a.formula in
  let rng = Rng.create a.seed in
  let task = Scdb_plan.Plan.Sample a.n in
  (* Every engine shares the parse, the preprocessing rng draws and the
     plan; they differ only in how the n draws are executed. *)
  let* prepared = prepare ~config ~gamma ~eps:a.eps ~delta:a.delta ~task rng relation in
  let e = start_engine ~engine ~eps:a.eps ~delta:a.delta prepared in
  let plan = e.plan in
  if progress then begin
    Plan_exec.arm plan;
    Scdb_progress.Progress.start_ticker ()
  end;
  let finish_progress () = if progress then Scdb_progress.Progress.stop () in
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
      Ok { points; relation; rng; plan }
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
    draws = Some (Rng.draw_count o.rng);
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
  let* n =
    match int_of_string_opt n_s with Some n when n >= 0 -> Ok n | _ -> Error "malformed n"
  in
  let* eps = Option.to_result ~none:"malformed eps" (float_of_string_opt eps_s) in
  let* delta = Option.to_result ~none:"malformed delta" (float_of_string_opt delta_s) in
  let vars = split_vars vars_s in
  let method_ = Option.value ~default:"walk" (Flightrec.arg r "method") in
  (* A strict-VM record is an interpreter stream: the compiled engine
     drew the interpreter's stream on the unrewritten plan. *)
  let engine =
    match Flightrec.arg r "engine" with None | Some "vm" -> "interp" | Some e -> e
  in
  Ok { vars; formula; n; seed = r.Flightrec.seed; eps; delta; method_; engine }

let replay (r : Flightrec.t) =
  let* a = args_of_flightrec r in
  let* o = run a in
  let* n = Flightrec.compare_samples ~recorded:r.Flightrec.samples ~replayed:o.points in
  (* The sample stream is the contract, but the draw count is a cheap
     second opinion: matching points with a different draw count means
     some non-emitting code path changed. *)
  let replayed = Rng.draw_count o.rng in
  match r.Flightrec.draws with
  | Some recorded when recorded <> replayed ->
      Error
        (Printf.sprintf
           "sample stream matches but total RNG draws differ: recorded %d, replayed %d"
           recorded replayed)
  | _ -> Ok n
