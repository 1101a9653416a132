(* A staged mirror of [Flight.run] and [Plan_exec.*_of_relation]: the
   same public calls in the same order, split so that each stage runs
   inside its own tracer span (parse, elimination, DNF, per-tuple
   preparation, plan, observe or compile, first draw, remaining draws).
   [mirror_check] proves at set-up that it is a faithful copy. *)

open Scdb_gis
module FM = Scdb_qe.Fourier_motzkin
module Plan = Scdb_plan.Plan
module Vm = Scdb_vm.Vm

let span = Tracer.span

(* What [Flight.run] uses for [--method walk]. *)
let flight_config = Convex_obs.practical_config
let gamma = Flight.gamma

let prepare ~config rng relation =
  let dim = Relation.dim relation in
  List.filter_map
    (fun tuple ->
      Option.map
        (fun prep -> (tuple, prep))
        (span "core.prepare" (fun () ->
             Convex_obs.prepare_relation ~config rng (Relation.make ~dim [ tuple ]))))
    (Relation.tuples relation)

(* The union's ε/3, δ/(4m) split, as [Plan_exec] builds it. *)
let plan ~config ~eps ~delta ~task ~dim pieces =
  span "plan.build" @@ fun () ->
  match pieces with
  | [ (tuple, _) ] ->
      Plan.finalize ~gamma ~eps ~delta ~task (Plan_build.leaf_node ~config ~eps ~delta ~dim tuple)
  | many ->
      let m = List.length many in
      let sub_eps = eps /. 3.0 and sub_delta = delta /. float_of_int (4 * m) in
      let leaves =
        List.map
          (fun (tuple, _) -> Plan_build.leaf_node ~config ~eps:sub_eps ~delta:sub_delta ~dim tuple)
          many
      in
      Plan.finalize ~gamma ~eps ~delta ~task (Plan.union_ ~eps ~delta leaves)

let observe (plan : Plan.t) pieces =
  span "core.observe" @@ fun () ->
  let root = plan.Plan.root in
  match pieces with
  | [ (_, prep) ] -> Plan_exec.tag root.Plan.id (Convex_obs.observe prep)
  | many ->
      let children =
        List.map2
          (fun (child : Plan.node) (_, prep) -> Plan_exec.tag child.Plan.id (Convex_obs.observe prep))
          root.Plan.children many
      in
      Plan_exec.tag root.Plan.id (Union.union children)

let empty = "relation is empty, unbounded or lower-dimensional"

(* [Plan_exec.observable_of_relation], staged. *)
let observable ~config ~eps ~delta ~task rng relation =
  match prepare ~config rng relation with
  | [] -> Error empty
  | pieces ->
      let plan = plan ~config ~eps ~delta ~task ~dim:(Relation.dim relation) pieces in
      Ok (observe plan pieces)

(* [Flight.run] with default flags, staged.  Returns the points and the
   root generator, whose draw count the mirror check compares. *)
let sample (a : Flight.args) =
  match span "constr.parse" (fun () -> Parser.parse ~vars:a.Flight.vars a.Flight.formula) with
  | exception Parser.Parse_error m -> Error ("parse error: " ^ m)
  | f -> (
      let f =
        if Formula.is_quantifier_free f then f else span "qe.eliminate" (fun () -> FM.eliminate f)
      in
      let dim = List.length a.Flight.vars in
      let relation = span "constr.dnf" (fun () -> Relation.of_formula ~dim f) in
      let rng = Rng.create a.Flight.seed in
      let eps = a.Flight.eps and delta = a.Flight.delta and n = a.Flight.n in
      let config = flight_config in
      match prepare ~config rng relation with
      | [] -> Error empty
      | pieces -> (
          let plan = plan ~config ~eps ~delta ~task:(Plan.Sample n) ~dim pieces in
          let draw =
            match a.Flight.engine with
            | "interp" ->
                let obs = observe plan pieces in
                let params = Params.make ~gamma ~eps ~delta () in
                Ok (fun k -> Observable.sample_many obs rng params ~n:k)
            | engine -> (
                let preps = Array.of_list (List.map snd pieces) in
                match
                  span "vm.compile" (fun () ->
                      Vm.compile ~optimize:(engine = "vm-opt") ~plan ~pieces:preps ())
                with
                | Error m -> Error ("plan does not compile: " ^ m)
                | Ok prog -> Ok (fun k -> Vm.sample_many prog rng ~n:k))
          in
          match draw with
          | Error m -> Error m
          | Ok draw -> (
              match
                let first = span "draw.first" (fun () -> draw 1) in
                first @ span "draw.rest" (fun () -> draw (n - 1))
              with
              | points -> Ok (points, rng)
              | exception Observable.Estimation_failed m -> Error m)))

let same_points a b =
  List.length a = List.length b
  && List.for_all2
       (fun (p : Vec.t) (q : Vec.t) ->
         Array.length p = Array.length q
         && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) p q)
       a b

(* The staged copy must return byte-identical points and consume the
   same number of root draws as [Flight.run]; otherwise the traced
   numbers would describe some other program. *)
let mirror_check ~label (a : Flight.args) =
  let who = label ^ "/" ^ a.Flight.engine in
  match (Flight.run a, sample a) with
  | Ok o, Ok (points, rng) ->
      if not (same_points o.Flight.points points) then
        failwith ("staged mirror draws different points than Flight.run: " ^ who)
      else if Rng.draw_count o.Flight.rng <> Rng.draw_count rng then
        failwith
          (Printf.sprintf "staged mirror makes %d root draws, Flight.run %d: %s" (Rng.draw_count rng)
             (Rng.draw_count o.Flight.rng) who)
  | Error m, _ | _, Error m -> failwith (Printf.sprintf "mirror check failed (%s): %s" m who)
