module FM = Scdb_qe.Fourier_motzkin
module Polytope = Scdb_polytope.Polytope

let rec unfold inst (q : Query.t) : Formula.t =
  match q with
  | Query.Rel (name, args) ->
      let r = Instance.get_exn inst name in
      let arg_arr = Array.of_list args in
      Formula.rename (Relation.to_formula r) (fun i -> arg_arr.(i))
  | Query.Constr a -> Formula.atom a
  | Query.And qs -> Formula.conj (List.map (unfold inst) qs)
  | Query.Or qs -> Formula.disj (List.map (unfold inst) qs)
  | Query.Not q -> Formula.neg (unfold inst q)
  | Query.Exists (vs, q) -> Formula.exists vs (unfold inst q)

let symbolic inst ~free_dim q =
  let f = FM.eliminate (unfold inst q) in
  Relation.of_formula ~dim:free_dim f

(* One convex piece through the plan pipeline: the optimizing pass
   prices every leaf for an exact weight and an exact or box sampler.
   [--eps]/[--delta]'s defaults only price the routes. *)
let observable_of_relation ?config rng r =
  Plan_exec.prepare ?config ~gamma:Flight.gamma ~eps:Flight.default_eps
    ~delta:Flight.default_delta ~task:Scdb_plan.Plan.Volume rng r
  |> Option.map (fun p -> Plan_exec.observe (Plan_exec.optimize p))

(* ------------------------------------------------------------------ *)
(* Normalization of queries into disjuncts of                          *)
(*   ∃ ē. (positive-conjunction ∧ ¬guard₁ ∧ … )                        *)
(* ------------------------------------------------------------------ *)

type piece = { evars : int list; pos : Query.t list; neg : Query.t list }

exception Unsupported of string

let empty_piece = { evars = []; pos = []; neg = [] }

let merge_pieces a b = { evars = a.evars @ b.evars; pos = a.pos @ b.pos; neg = a.neg @ b.neg }

(* Push negations to atoms first; [Not] survives only directly above a
   relation atom (a guard).  Constraint atoms negate symbolically. *)
let rec push_not (q : Query.t) : Query.t =
  match q with
  | Query.Rel _ | Query.Constr _ -> q
  | Query.And qs -> Query.conj (List.map push_not qs)
  | Query.Or qs -> Query.disj (List.map push_not qs)
  | Query.Exists (vs, q) -> Query.exists vs (push_not q)
  | Query.Not body -> (
      match body with
      | Query.Rel _ -> q
      | Query.Constr a -> Query.disj (List.map Query.constr (Atom.negate a))
      | Query.Not inner -> push_not inner
      | Query.And qs -> push_not (Query.disj (List.map Query.neg qs))
      | Query.Or qs -> push_not (Query.conj (List.map Query.neg qs))
      | Query.Exists _ -> raise (Unsupported "negated existential (universal quantification)"))

let rec pieces_of (q : Query.t) : piece list =
  match q with
  | Query.Rel _ | Query.Constr _ -> [ { empty_piece with pos = [ q ] } ]
  | Query.Not (Query.Rel _) -> [ { empty_piece with neg = [ q ] } ]
  | Query.Not _ -> raise (Unsupported "negation not pushed to an atom")
  | Query.Or qs -> List.concat_map pieces_of qs
  | Query.And qs ->
      List.fold_left
        (fun acc q ->
          let ps = pieces_of q in
          List.concat_map (fun a -> List.map (merge_pieces a) ps) acc)
        [ empty_piece ] qs
  | Query.Exists (vs, q) ->
      List.map (fun p -> { p with evars = vs @ p.evars }) (pieces_of q)

(* Observable with only a membership oracle: legal as the subtrahend of
   {!Diff.diff}, which never samples or measures it. *)
let membership_only r =
  Observable.make ~relation:r ~dim:(Relation.dim r)
    ~mem:(Relation.mem_fn ~slack:1e-9 r)
    ~sample:(fun _ _ -> None)
    ~volume:(fun _ ~gamma:_ ~eps:_ ~delta:_ ->
      raise (Observable.Estimation_failed "membership-only observable"))
    ()

(* π onto the free coordinates of each convex tuple that projects
   (π distributes over ∪).  Each tuple's source is the one-tuple
   relation's plan-pipeline observable, so it gets the exact weight
   and box or lattice draws the cost model picks; an unbounded tuple
   raises [Convex_obs.Unbounded]. *)
let project_tuples ?config rng ~free_dim r =
  let keep = List.init free_dim Fun.id and dim = Relation.dim r in
  List.filter_map
    (fun tuple ->
      Option.bind
        (observable_of_relation ?config rng (Relation.make ~dim [ tuple ]))
        (fun source -> Project.of_source rng source (Polytope.of_tuple ~dim tuple) ~keep))
    (Relation.tuples r)

(* The piece's positive conjunction over the free coordinates followed
   by its quantified variables, renamed to free_dim, free_dim+1, …, and
   that renaming. *)
let piece_relation inst ~free_dim piece =
  let table = Hashtbl.create 8 in
  List.iteri (fun k v -> Hashtbl.add table v (free_dim + k)) piece.evars;
  let renaming i =
    match Hashtbl.find_opt table i with
    | Some j -> j
    | None ->
        if i < free_dim then i
        else raise (Unsupported (Printf.sprintf "variable x%d is neither free nor quantified" i))
  in
  let pos_formula = Formula.rename (Formula.conj (List.map (unfold inst) piece.pos)) renaming in
  if not (Formula.is_quantifier_free pos_formula) then
    raise (Unsupported "nested quantifier inside a piece body");
  (Relation.of_formula ~dim:(free_dim + List.length piece.evars) pos_formula, renaming)

let compile_piece ?config ?poly_degree rng inst ~free_dim piece =
  let pos_relation, renaming = piece_relation inst ~free_dim piece in
  let positive () =
    match observable_of_relation ?config rng pos_relation with
    | Some o -> o
    | None -> raise (Unsupported "piece is empty or lower-dimensional")
  in
  match (piece.neg, piece.evars) with
  | [], [] -> positive ()
  | [], _ -> (
      (* Positive existential piece: the union of the projected tuples. *)
      match project_tuples ?config rng ~free_dim pos_relation with
      | [] -> raise (Unsupported "no projectable tuple (empty piece)")
      | [ one ] -> one
      | many -> Union.union many)
  | _, _ :: _ -> raise (Unsupported "difference under an existential quantifier")
  | negs, [] ->
      let guard = function Query.Not r -> unfold inst r | _ -> assert false in
      let guard_relation =
        Relation.of_formula ~dim:free_dim
          (Formula.rename (Formula.disj (List.map guard negs)) renaming)
      in
      let pos_obs = positive () in
      Diff.diff ?poly_degree pos_obs (membership_only guard_relation)

(* Run [f] over the normalized pieces of a well-formed query, with
   every refusal as an [Error]. *)
let with_pieces inst q f =
  match Query.well_formed (Instance.schema inst) q with
  | Error e -> Error e
  | Ok () -> (
      try f (pieces_of (push_not q)) with
      | Unsupported msg -> Error msg
      | Observable.Estimation_failed msg -> Error msg
      | Convex_obs.Unbounded -> Error Flight.unbounded_relation)

let compile ?config ?poly_degree rng inst ~free_dim q =
  Scdb_trace.Trace.span "eval.compile"
    ~attrs:[ ("free_dim", string_of_int free_dim) ]
  @@ fun () ->
  with_pieces inst q (function
    | [] -> Error "query normalizes to the empty disjunction"
    | pieces -> (
        match List.map (compile_piece ?config ?poly_degree rng inst ~free_dim) pieces with
        | [ one ] -> Ok one
        | many -> Ok (Union.union many)))

let reconstruct ?config ?(samples_per_piece = 150) rng inst ~free_dim q =
  if not (Query.is_positive_existential q) then
    Error "reconstruction requires a positive existential query (Theorem 4.4)"
  else
    with_pieces inst q (fun pieces ->
        (* One hull per convex tuple (Algorithm 5): tuples stay
           separate so each hull covers a convex set. *)
        let piece_observables =
          List.concat_map
            (fun piece ->
              let r, _ = piece_relation inst ~free_dim piece in
              if piece.evars = [] then Plan_exec.observe_tuples ?config rng r
              else project_tuples ?config rng ~free_dim r)
            pieces
        in
        if piece_observables = [] then Error "no non-empty convex piece to reconstruct"
        else Ok (Reconstruct.union_estimate rng piece_observables ~n:samples_per_piece))
