module Plan = Scdb_plan.Plan
module Cost = Scdb_plan.Cost
module Probe = Scdb_obs.Probe

let sampler_of_method m =
  match List.assoc_opt m Convex_obs.samplers with
  | Some s -> s
  | None when m = Convex_obs.sampler_name Convex_obs.Exact_lattice -> Convex_obs.Exact_lattice
  | None -> invalid_arg (Printf.sprintf "unknown plan method %S" m)

let hr_steps (p : Convex_obs.prepared) =
  match p.Convex_obs.p_config.Convex_obs.walk_steps with
  | Some s -> s
  | None -> Hit_and_run.default_steps ~dim:p.Convex_obs.p_dim

let single_tuple (p : Convex_obs.prepared) =
  match p.Convex_obs.p_relation with
  | Some r -> ( match Relation.tuples r with [ tuple ] -> Some tuple | _ -> None)
  | None -> None

(* A leaf the pass would have priced for the exact sampler keeps its walk
   or box: one warning, counted. *)
let declined =
  Probe.warning ~counter:"vm.exact_declined" "rewrite.exact_sampler_declined" (fun node reason ->
      [ Probe.int "node" node; Probe.str "reason" reason ])

let box_volume (lo, hi) =
  let v = ref 1.0 in
  Array.iteri (fun i l -> v := !v *. (hi.(i) -. l)) lo;
  !v

(* The piece of each dfk leaf: leaves take [pieces] in preorder, one
   each, and there must be exactly as many pieces as leaves. *)
let leaf_piece (plan : Plan.t) (pieces : Convex_obs.prepared array) =
  let by_id = Array.make plan.Plan.node_count None in
  let leaves = ref 0 in
  Plan.iter_nodes
    (fun n ->
      match n.Plan.op with
      | Plan.Dfk _ ->
          if !leaves < Array.length pieces then by_id.(n.Plan.id) <- Some pieces.(!leaves);
          incr leaves
      | Plan.Union_op _ -> ())
    plan;
  if !leaves <> Array.length pieces then
    invalid_arg
      (Printf.sprintf "piece count mismatch: %d piece(s) for a plan with %d leaves"
         (Array.length pieces) !leaves);
  fun (n : Plan.node) -> Option.get by_id.(n.Plan.id)

let optimize (plan : Plan.t) (pieces : Convex_obs.prepared array) =
  let calls = Plan.sample_calls plan in
  let piece = leaf_piece plan pieces in
  (* [read]: something reads this subtree's volume — a union's weights,
     or the task's own volume phase. *)
  let rec go ~read (n : Plan.node) =
    match n.Plan.op with
    | Plan.Dfk d ->
        let p = piece n in
        let dim = n.Plan.dim and draws = calls.(n.Plan.id) in
        let lasserre_calls =
          if not read then None
          else
            Option.map
              (fun tuple -> Cost.lasserre_calls ~dim ~rows:(Volume_exact.tuple_rows tuple))
              (single_tuple p)
        in
        let exact_weight =
          match Plan.weight_costs { n with Plan.op = Plan.Dfk { d with lasserre_calls } } with
          | Some (exact, dfk) -> exact <= dfk
          | None -> false
        in
        let walk = d.method_ = "walk" && draws > 0.0 in
        (* The lattice of a walking leaf whose face bound is within the
           cap, with its build price. *)
        let lattice =
          if not walk then None
          else begin
            let rows = Polytope.num_constraints p.Convex_obs.p_body in
            let faces = Cost.exact_sampler_faces ~dim ~rows in
            if faces > Cost.exact_sampler_face_cap then begin
              Probe.warn2 declined n.Plan.id
                (Printf.sprintf "face bound %.0f exceeds the cap %.0f" faces
                   Cost.exact_sampler_face_cap);
              None
            end
            else
              match Lazy.force p.Convex_obs.p_lattice with
              | Ok l -> Some (l, Cost.exact_sampler_build_steps ~dim ~rows)
              | Error e ->
                  Probe.warn2 declined n.Plan.id (Pyramid.decline_reason e);
                  None
          end
        in
        (* The box and the leaf's volume in the rounded frame, where the
           pass knows the volume: the lattice's own, or the Lasserre
           volume of an exact-weight leaf. *)
        let measured =
          match lattice with
          | Some (l, _) -> Some (Pyramid.bounding_box l, Pyramid.volume l)
          | None when walk && exact_weight -> (
              match (Lazy.force p.Convex_obs.p_exact_volume, Lazy.force p.Convex_obs.p_box) with
              | Some v, Some b -> Some (b, v *. Affine.volume_scale p.Convex_obs.p_transform)
              | _ -> None)
          | None -> None
        in
        let hr = float_of_int (hr_steps p) in
        let has_box () = Option.is_some (Lazy.force p.Convex_obs.p_box) in
        let box_trials, box =
          if d.method_ <> "walk" then (None, false)
          else
            match measured with
            | Some (b, body_volume) ->
                let t = Cost.rejection_box_trials_exact ~box_volume:(box_volume b) ~body_volume in
                (Some t, t <= hr && has_box ())
            | None -> (None, float_of_int (Cost.rejection_box_trials ~dim) <= hr && has_box ())
        in
        let priced method_ =
          Plan.Dfk { d with method_; lasserre_calls; box_trials; exact_build = Option.map snd lattice }
        in
        let exact =
          match Plan.draw_route ~calls:draws { n with Plan.op = priced d.method_ } with
          | Some (_, exact, walk, box_steps) -> (
              exact < walk && match box_steps with Some b when box -> exact < b | _ -> true)
          | None -> false
        in
        let method_ =
          if exact then Convex_obs.sampler_name Convex_obs.Exact_lattice
          else if box then "rejection"
          else d.method_
        in
        Plan.reprice
          {
            n with
            Plan.op = priced method_;
            tags =
              (if exact then [ Plan.exact_sampler ] else [])
              @ (if exact_weight then [ Plan.exact_weight ] else [])
              @ if box && not exact then [ Plan.rejection_box_substituted ] else [];
          }
    | Plan.Union_op _ ->
        Plan.reprice { n with Plan.children = List.map (go ~read:true) n.Plan.children }
  in
  let read = match plan.Plan.task with Plan.Sample _ -> false | Plan.Volume | Plan.Report _ -> true in
  let root = go ~read plan.Plan.root in
  Plan.finalize ~gamma:plan.Plan.gamma ~eps:plan.Plan.eps ~delta:plan.Plan.delta
    ~task:plan.Plan.task root

(* [obs] with its volume replaced by the Lasserre volume of its piece,
   computed on first use and kept on the piece. *)
let exact_weight (p : Convex_obs.prepared) (obs : Observable.t) =
  {
    obs with
    Observable.volume =
      (fun rng ~gamma ~eps ~delta ->
        match Lazy.force p.Convex_obs.p_exact_volume with
        | Some v -> v
        | None -> obs.Observable.volume rng ~gamma ~eps ~delta);
  }

let observables (plan : Plan.t) (pieces : Convex_obs.prepared array) =
  let piece = leaf_piece plan pieces in
  let built = Array.make plan.Plan.node_count None in
  let rec build (n : Plan.node) =
    let obs =
      match n.Plan.op with
      | Plan.Dfk { method_; _ } ->
          let p = piece n in
          let obs = Convex_obs.observe (Convex_obs.with_sampler (sampler_of_method method_) p) in
          if List.mem Plan.exact_weight n.Plan.tags then exact_weight p obs else obs
      | Plan.Union_op _ -> Union.union (List.map build n.Plan.children)
    in
    let obs = Observable.tag n.Plan.id obs in
    built.(n.Plan.id) <- Some obs;
    obs
  in
  ignore (build plan.Plan.root);
  Array.map Option.get built
