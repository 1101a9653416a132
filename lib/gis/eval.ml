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

let observable_of_relation ?config rng r =
  match List.map (fun (_, p) -> Convex_obs.observe p) (Convex_obs.prepare_tuples ?config rng r) with
  | [] -> None
  | [ one ] -> Some one
  | many -> Some (Union.union many)

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
    ~mem:(fun x -> Relation.mem_float ~slack:1e-9 r x)
    ~sample:(fun _ _ -> None)
    ~volume:(fun _ ~gamma:_ ~eps:_ ~delta:_ ->
      raise (Observable.Estimation_failed "membership-only observable"))
    ()

(* π onto the free coordinates of each convex tuple that projects
   (π distributes over ∪). *)
let project_tuples rng ~free_dim r =
  let keep = List.init free_dim Fun.id in
  List.filter_map
    (fun tuple -> Project.project rng (Polytope.of_tuple ~dim:(Relation.dim r) tuple) ~keep)
    (Relation.tuples r)

let compile_piece ?config ?poly_degree rng inst ~free_dim piece =
  (* Rename the piece's quantified variables to free_dim, free_dim+1, … *)
  let evars = piece.evars in
  let ambient = free_dim + List.length evars in
  let renaming =
    let table = Hashtbl.create 8 in
    List.iteri (fun k v -> Hashtbl.add table v (free_dim + k)) evars;
    fun i ->
      match Hashtbl.find_opt table i with
      | Some j -> j
      | None ->
          if i < free_dim then i
          else raise (Unsupported (Printf.sprintf "variable x%d is neither free nor quantified" i))
  in
  let pos_formula =
    Formula.rename (Formula.conj (List.map (unfold inst) piece.pos)) renaming
  in
  if not (Formula.is_quantifier_free pos_formula) then
    raise (Unsupported "nested quantifier inside a piece body");
  let pos_relation = Relation.of_formula ~dim:ambient pos_formula in
  match piece.neg with
  | [] when evars = [] -> (
      match observable_of_relation ?config rng pos_relation with
      | Some o -> o
      | None -> raise (Unsupported "piece is empty or unbounded"))
  | [] ->
      (* Positive existential piece: the union of the projected tuples. *)
      (match project_tuples rng ~free_dim pos_relation with
      | [] -> raise (Unsupported "no projectable tuple (empty or unbounded piece)")
      | [ one ] -> one
      | many -> Union.union many)
  | negs ->
      if evars <> [] then
        raise (Unsupported "difference under an existential quantifier");
      let guard_formula =
        Formula.rename (Formula.disj (List.map (fun g -> match g with Query.Not r -> unfold inst r | _ -> assert false) negs)) renaming
      in
      let guard_relation = Relation.of_formula ~dim:free_dim guard_formula in
      (match observable_of_relation ?config rng pos_relation with
      | None -> raise (Unsupported "piece is empty or unbounded")
      | Some pos_obs -> Diff.diff ?poly_degree pos_obs (membership_only guard_relation))

let compile ?config ?poly_degree rng inst ~free_dim q =
  Scdb_trace.Trace.span "eval.compile"
    ~attrs:[ ("free_dim", string_of_int free_dim) ]
  @@ fun () ->
  match Query.well_formed (Instance.schema inst) q with
  | Error e -> Error e
  | Ok () -> (
      try
        let pieces = pieces_of (push_not q) in
        if pieces = [] then Error "query normalizes to the empty disjunction"
        else begin
          let compiled = List.map (compile_piece ?config ?poly_degree rng inst ~free_dim) pieces in
          match compiled with [ one ] -> Ok one | many -> Ok (Union.union many)
        end
      with
      | Unsupported msg -> Error msg
      | Observable.Estimation_failed msg -> Error msg
      | Convex_obs.Unbounded -> Error Flight.unbounded_relation)

let reconstruct ?config ?(samples_per_piece = 150) rng inst ~free_dim q =
  if not (Query.is_positive_existential q) then
    Error "reconstruction requires a positive existential query (Theorem 4.4)"
  else begin
    match Query.well_formed (Instance.schema inst) q with
    | Error e -> Error e
    | Ok () -> (
        try
          let pieces = pieces_of (push_not q) in
          (* One observable per piece, then one hull per piece
             (Algorithm 5): pieces must stay separate so each hull
             covers a convex set. *)
          let piece_observables =
            List.concat_map
              (fun piece ->
                (* Split multi-tuple pieces further: one hull per tuple. *)
                let evars = piece.evars in
                let ambient = free_dim + List.length evars in
                let renaming =
                  let table = Hashtbl.create 8 in
                  List.iteri (fun k v -> Hashtbl.add table v (free_dim + k)) evars;
                  fun i -> match Hashtbl.find_opt table i with Some j -> j | None -> i
                in
                let f = Formula.rename (Formula.conj (List.map (unfold inst) piece.pos)) renaming in
                let r = Relation.of_formula ~dim:ambient f in
                if evars = [] then
                  Convex_obs.prepare_tuples ?config rng r
                  |> List.map (fun (_, p) -> Convex_obs.observe p)
                else project_tuples rng ~free_dim r)
              pieces
          in
          if piece_observables = [] then Error "no non-empty convex piece to reconstruct"
          else Ok (Reconstruct.union_estimate rng piece_observables ~n:samples_per_piece)
        with
        | Unsupported msg -> Error msg
        | Observable.Estimation_failed msg -> Error msg
        | Convex_obs.Unbounded -> Error Flight.unbounded_relation)
  end
