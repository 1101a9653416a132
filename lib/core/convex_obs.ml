module Trace = Scdb_trace.Trace

type sampler = Grid_walk | Hit_and_run | Rejection_box

type config = {
  sampler : sampler;
  volume_budget : Volume.budget;
  walk_steps : int option;
}

let samplers = [ ("walk", Hit_and_run); ("grid", Grid_walk); ("rejection", Rejection_box) ]
let sampler_name s = fst (List.find (fun (_, s') -> s' = s) samplers)

let default_config = { sampler = Grid_walk; volume_budget = Volume.Rigorous; walk_steps = None }

let practical_config =
  { sampler = Hit_and_run; volume_budget = Volume.Practical 2000; walk_steps = None }

(* A prepared piece is the rng-consuming half of generator construction
   (the well-rounding preprocessing), split from the closure-building
   half so the plan→kernel compiler can reuse the exact same
   preprocessing draws and then build either an interpreted observable
   ([observe]) or a compiled program (Scdb_vm) over the same rounded
   body. *)
type prepared = {
  p_dim : int;
  p_config : config;
  p_relation : Relation.t option;
  p_original : Polytope.t;
  p_body : Polytope.t;
  p_transform : Affine.t;
  p_r_sup : float;
  p_box : (Vec.t * Vec.t) option Lazy.t;
}

exception Unbounded

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
  let sample walk_rng params =
    let gamma = Params.gamma params and eps = Params.eps params in
    let steps =
      match config.walk_steps with
      | Some s -> s
      | None -> (
          match config.sampler with
          | Grid_walk -> Walk.default_steps ~dim ~eps
          | Hit_and_run | Rejection_box -> Hit_and_run.default_steps ~dim)
    in
    (* One chain of the batched kernel. *)
    let hit_and_run () =
      (Hit_and_run.sample_polytope_batch [| walk_rng |] body ~starts:[| Vec.create dim |] ~steps)
        .(0)
    in
    (* Walk on the γ-grid of the rounded body (where DFK mixing
       applies), then map the vertex back through the rounding
       transform. *)
    let point =
      match config.sampler with
      | Grid_walk ->
          let grid = Grid.step_for ~gamma ~dim ~scale:r_sup in
          Walk.sample walk_rng ~grid
            ~mem:(fun x -> Polytope.mem body x)
            ~start:(Vec.create dim) ~steps
      | Hit_and_run -> hit_and_run ()
      | Rejection_box -> (
          (* Exactly uniform; the right tool in low dimension where
             the body fills a decent fraction of its bounding box.
             Falls back to hit-and-run if the budget runs dry, so
             the generator never fails outright. *)
          match Lazy.force p.p_box with
          | None -> hit_and_run ()
          | Some (lo, hi) -> (
              match
                Rejection.sample walk_rng ~lo ~hi
                  ~mem:(fun x -> Polytope.mem body x)
                  ~max_attempts:20_000
              with
              | Some (x, _) -> x
              | None -> hit_and_run ()))
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
      | Hit_and_run | Rejection_box -> Volume.Hit_and_run
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
    | Some r -> fun x -> Relation.mem_float ~slack:1e-9 r x
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
