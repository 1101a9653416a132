module Plan = Scdb_plan.Plan
module Cost = Scdb_plan.Cost
module Tel = Scdb_telemetry.Telemetry

let tel_lasserre = Tel.Counter.make "vm.lasserre_calls"

let sampler_of_method m =
  match List.assoc_opt m Convex_obs.samplers with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "unknown plan method %S" m)

let hr_steps (p : Convex_obs.prepared) =
  match p.Convex_obs.p_config.Convex_obs.walk_steps with
  | Some s -> s
  | None -> Hit_and_run.default_steps ~dim:p.Convex_obs.p_dim

let single_tuple (p : Convex_obs.prepared) =
  match p.Convex_obs.p_relation with
  | Some r -> ( match Relation.tuples r with [ tuple ] -> Some tuple | _ -> None)
  | None -> None

let optimize (plan : Plan.t) (pieces : Convex_obs.prepared array) =
  let next = ref 0 in
  let piece () =
    if !next >= Array.length pieces then
      invalid_arg
        (Printf.sprintf "piece count mismatch: %d piece(s) for a plan with more leaves"
           (Array.length pieces));
    incr next;
    pieces.(!next - 1)
  in
  (* [read]: something reads this subtree's volume — a union's weights,
     or the task's own volume phase. *)
  let rec go ~read (n : Plan.node) =
    match n.Plan.op with
    | Plan.Dfk d ->
        let p = piece () in
        let box =
          d.method_ = "walk"
          && Cost.rejection_box_trials ~dim:n.Plan.dim <= hr_steps p
          && Option.is_some (Lazy.force p.Convex_obs.p_box)
        in
        let lasserre_calls =
          if not read then None
          else
            Option.map
              (fun tuple ->
                Cost.lasserre_calls ~dim:n.Plan.dim ~rows:(Volume_exact.tuple_rows tuple))
              (single_tuple p)
        in
        let priced = { n with Plan.op = Plan.Dfk { d with lasserre_calls } } in
        let exact =
          match Plan.weight_costs priced with Some (exact, dfk) -> exact <= dfk | None -> false
        in
        Plan.reprice
          {
            priced with
            Plan.op =
              Plan.Dfk { d with lasserre_calls; method_ = (if box then "rejection" else d.method_) };
            tags =
              (if exact then [ Plan.exact_weight ] else [])
              @ if box then [ Plan.rejection_box_substituted ] else [];
          }
    | Plan.Union_op _ ->
        Plan.reprice { n with Plan.children = List.map (go ~read:true) n.Plan.children }
    | _ -> Plan.reprice { n with Plan.children = List.map (go ~read) n.Plan.children }
  in
  let read = match plan.Plan.task with Plan.Sample _ -> false | Plan.Volume | Plan.Report _ -> true in
  let root = go ~read plan.Plan.root in
  Plan.finalize ~gamma:plan.Plan.gamma ~eps:plan.Plan.eps ~delta:plan.Plan.delta
    ~task:plan.Plan.task root

(* [obs] with its volume replaced by the Lasserre volume of [tuple].  A
   prepared piece was rounded, so its tuple is non-empty and the
   feasibility LP has nothing to decide. *)
let exact_weight ~dim tuple (obs : Observable.t) =
  let v =
    lazy
      (let calls = ref 0 in
       let v =
         match Volume_exact.volume_tuple ~calls ~nonempty:true ~dim tuple with
         | q -> Some (Rational.to_float q)
         | exception (Volume_exact.Unbounded | Invalid_argument _ | Division_by_zero) -> None
       in
       Tel.Counter.add tel_lasserre !calls;
       v)
  in
  {
    obs with
    Observable.volume =
      (fun rng ~gamma ~eps ~delta ->
        match Lazy.force v with
        | Some v -> v
        | None -> obs.Observable.volume rng ~gamma ~eps ~delta);
  }

let observables (plan : Plan.t) (pieces : Convex_obs.prepared array) =
  let built = Array.make plan.Plan.node_count None in
  let next = ref 0 in
  let rec build (n : Plan.node) =
    let obs =
      match n.Plan.op with
      | Plan.Dfk { method_; _ } -> (
          let p = pieces.(!next) in
          incr next;
          let obs = Convex_obs.observe (Convex_obs.with_sampler (sampler_of_method method_) p) in
          match single_tuple p with
          | Some tuple when List.mem Plan.exact_weight n.Plan.tags ->
              exact_weight ~dim:n.Plan.dim tuple obs
          | _ -> obs)
      | Plan.Union_op _ -> Union.union (List.map build n.Plan.children)
      | op -> invalid_arg (Printf.sprintf "no observable for plan operator %S" (Plan.op_name op))
    in
    let obs = Observable.tag n.Plan.id obs in
    built.(n.Plan.id) <- Some obs;
    obs
  in
  ignore (build plan.Plan.root);
  Array.map Option.get built
