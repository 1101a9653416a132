module Trace = Scdb_trace.Trace
module Tel = Scdb_telemetry.Telemetry

let tel_lasserre = Tel.Counter.make "vm.lasserre_calls"

type sampler = Grid_walk | Hit_and_run | Rejection_box | Exact_lattice

type config = {
  sampler : sampler;
  volume_budget : Volume.budget;
  walk_steps : int option;
}

let samplers = [ ("walk", Hit_and_run); ("grid", Grid_walk); ("rejection", Rejection_box) ]
let sampler_name = function
  | Exact_lattice -> "exact"
  | s -> fst (List.find (fun (_, s') -> s' = s) samplers)

let default_config = { sampler = Grid_walk; volume_budget = Volume.Rigorous; walk_steps = None }

let practical_config =
  { sampler = Hit_and_run; volume_budget = Volume.Practical 2000; walk_steps = None }

(* A prepared piece is the rng-consuming half of generator construction
   (the well-rounding preprocessing), split from the closure-building
   half ([observe]) so the optimizing pass can price and rewrite a plan
   over the same rounded bodies the run then draws from. *)
type prepared = {
  p_dim : int;
  p_config : config;
  p_relation : Relation.t option;
  p_original : Polytope.t;
  p_body : Polytope.t;
  p_transform : Affine.t;
  p_r_sup : float;
  p_box : (Vec.t * Vec.t) option Lazy.t;
  p_lattice : (Pyramid.t, Pyramid.decline) result Lazy.t;
  p_exact_volume : float option Lazy.t;
}

exception Unbounded

(* The Lasserre volume of a single-tuple relation.  A prepared piece was
   rounded, so its tuple is non-empty and the feasibility LP has nothing
   to decide. *)
let exact_volume ~dim relation =
  lazy
    (match Option.map Relation.tuples relation with
    | Some [ tuple ] ->
        let calls = ref 0 in
        let v =
          match Volume_exact.volume_tuple ~calls ~nonempty:true ~dim tuple with
          | q -> Some (Rational.to_float q)
          | exception (Volume_exact.Unbounded | Invalid_argument _ | Division_by_zero) -> None
        in
        Tel.Counter.add tel_lasserre !calls;
        v
    | _ -> None)

(* The piece, or why the rounding refused the body. *)
let prepare_checked ?(config = default_config) ?relation rng poly =
  Trace.span "generator.construct"
    ~attrs:[ ("dim", string_of_int (Polytope.dim poly)) ]
  @@ fun () ->
  match Rounding.round rng poly with
  | Error _ as e -> e
  | Ok rounded ->
      Ok
        {
          p_dim = Polytope.dim poly;
          p_config = config;
          p_relation = relation;
          p_original = poly;
          p_body = rounded.Rounding.rounded;
          p_transform = rounded.Rounding.transform;
          p_r_sup = rounded.Rounding.r_sup;
          p_box = lazy (Polytope.bounding_box rounded.Rounding.rounded);
          p_lattice = lazy (Pyramid.build rounded.Rounding.rounded);
          p_exact_volume = exact_volume ~dim:(Polytope.dim poly) relation;
        }

let prepare ?config ?relation rng poly =
  Result.to_option (prepare_checked ?config ?relation rng poly)

let with_sampler sampler p = { p with p_config = { p.p_config with sampler } }

let observe p =
  let config = p.p_config in
  let dim = p.p_dim in
  let body = p.p_body in
  let transform = p.p_transform in
  let r_sup = p.p_r_sup in
  let body_mem x = Polytope.mem body x in
  let hr_steps =
    match config.walk_steps with Some s -> s | None -> Hit_and_run.default_steps ~dim
  in
  (* One chain of the batched kernel. *)
  let hit_and_run walk_rng =
    (Hit_and_run.sample_polytope_batch [| walk_rng |] body ~starts:[| Vec.create dim |]
       ~steps:hr_steps).(0)
  in
  (* A point of the rounded body, mapped back through the rounding
     transform. *)
  let sample walk_rng params =
    let point =
      match config.sampler with
      | Grid_walk ->
          (* Walk on the γ-grid of the rounded body, where DFK mixing
             applies. *)
          let steps =
            match config.walk_steps with
            | Some s -> s
            | None -> Walk.default_steps ~dim ~eps:(Params.eps params)
          in
          let grid = Grid.step_for ~gamma:(Params.gamma params) ~dim ~scale:r_sup in
          Walk.sample walk_rng ~grid ~mem:body_mem ~start:(Vec.create dim) ~steps
      | Hit_and_run -> hit_and_run walk_rng
      | Rejection_box -> (
          (* Exactly uniform; the right tool in low dimension where
             the body fills a decent fraction of its bounding box.
             Falls back to hit-and-run if the budget runs dry, so
             the generator never fails outright. *)
          match Lazy.force p.p_box with
          | None -> hit_and_run walk_rng
          | Some (lo, hi) -> (
              match Rejection.sample walk_rng ~lo ~hi ~mem:body_mem ~max_attempts:20_000 with
              | Some x -> x
              | None -> hit_and_run walk_rng))
      | Exact_lattice -> (
          match Lazy.force p.p_lattice with
          | Ok lattice -> Pyramid.sample lattice walk_rng
          | Error _ -> hit_and_run walk_rng)
    in
    Some (Affine.apply_inverse transform point)
  in
  (* Continuous multi-phase estimator: no grid, so γ is unused. *)
  let volume vol_rng ~gamma:_ ~eps ~delta =
    (* The body is already rounded; estimate there and undo the
       transform's volume scale. *)
    let sampler =
      match config.sampler with
      | Grid_walk -> Volume.Grid_walk
      | Hit_and_run | Rejection_box | Exact_lattice -> Volume.Hit_and_run
    in
    match
      Volume.estimate vol_rng ~eps ~delta ~sampler ~budget:config.volume_budget
        ?walk_steps:config.walk_steps body
    with
    | Some report -> report.Volume.volume /. Affine.volume_scale transform
    | None -> raise (Observable.Estimation_failed "convex volume estimation failed")
  in
  let mem =
    match p.p_relation with
    | Some r -> Relation.mem_fn ~slack:1e-9 r
    | None -> fun x -> Polytope.mem ~slack:1e-9 p.p_original x
  in
  Observable.make ?relation:p.p_relation ~dim ~mem ~sample ~volume ()

let of_polytope ?config ?relation rng poly =
  Option.map observe (prepare ?config ?relation rng poly)

let prepare_relation ?config rng relation =
  match Relation.tuples relation with
  | [ tuple ] ->
      let poly = Polytope.of_tuple ~dim:(Relation.dim relation) tuple in
      prepare ?config ~relation rng poly
  | _ -> invalid_arg "Convex_obs.make: relation must be a single generalized tuple"

let make ?config rng relation = Option.map observe (prepare_relation ?config rng relation)

(* A measure-zero tuple adds nothing to the union and is dropped; an
   unbounded one gives the whole relation infinite measure, so no
   uniform generator exists and the relation is refused. *)
let prepare_tuples ?config rng relation =
  let dim = Relation.dim relation in
  List.filter_map
    (fun tuple ->
      let relation = Relation.make ~dim [ tuple ] in
      match prepare_checked ?config ~relation rng (Polytope.of_tuple ~dim tuple) with
      | Ok p -> Some (tuple, p)
      | Error (Rounding.Empty | Rounding.Flat) -> None
      | Error Rounding.Unbounded -> raise Unbounded)
    (Relation.tuples relation)
