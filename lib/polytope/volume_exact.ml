exception Unbounded

module Es = Scdb_lp.Exact_simplex
module Q = Rational

(* A constraint [row · x <= rhs] over [dim] variables. *)
type cstr = { row : Q.t array; rhs : Q.t }

let normalize_constraint c =
  (* Scale so that the first non-zero coefficient has absolute value 1;
     identical halfspaces then compare structurally equal. *)
  let lead = Array.find_opt (fun x -> not (Q.is_zero x)) c.row in
  match lead with
  | None -> None (* constant constraint: trivially true or infeasible *)
  | Some l ->
      let s = Q.inv (Q.abs l) in
      Some { row = Array.map (Q.mul s) c.row; rhs = Q.mul s c.rhs }

(* Keep, for each distinct direction, only the tightest right-hand side;
   report [None] if a constant constraint is violated (empty set). *)
let preprocess cstrs =
  let table = Hashtbl.create 16 in
  let infeasible = ref false in
  List.iter
    (fun c ->
      match normalize_constraint c with
      | None -> if Q.sign c.rhs < 0 then infeasible := true
      | Some c ->
          (match Hashtbl.find_opt table c.row with
          | Some c' when Q.compare c'.rhs c.rhs <= 0 -> ()
          | _ -> Hashtbl.replace table c.row c))
    cstrs;
  if !infeasible then None
  else Some (Hashtbl.fold (fun _ c acc -> c :: acc) table [])

(* Substitute [x_k := (rhs0 − Σ_{j≠k} row0_j x_j) / row0_k] into [c],
   producing a constraint over [dim−1] variables (coordinate [k] removed). *)
let substitute ~k ~pivot c =
  let pk = pivot.row.(k) in
  let ck = c.row.(k) in
  let factor = Q.div ck pk in
  let d = Array.length c.row in
  let row =
    Array.init (d - 1) (fun j ->
        let j' = if j < k then j else j + 1 in
        Q.sub c.row.(j') (Q.mul factor pivot.row.(j')))
  in
  { row; rhs = Q.sub c.rhs (Q.mul factor pivot.rhs) }

(* [calls] counts the invocations, the unit [Cost.lasserre_calls]
   bounds. *)
let rec volume_rec calls dim cstrs =
  incr calls;
  match preprocess cstrs with
  | None -> Q.zero
  | Some cstrs when dim = 1 -> (
      (* The tightest bounds x >= rhs/a (a < 0) and x <= rhs/a (a > 0). *)
      let bound sign pick =
        List.fold_left
          (fun acc c ->
            if Q.sign c.row.(0) <> sign then acc
            else
              let v = Q.div c.rhs c.row.(0) in
              Some (match acc with Some w -> pick w v | None -> v))
          None cstrs
      in
      match (bound (-1) Q.max, bound 1 Q.min) with
      | Some l, Some h -> if Q.compare l h >= 0 then Q.zero else Q.sub h l
      | _ -> raise Unbounded)
  | Some [] -> raise Unbounded
  | Some cstrs ->
      List.fold_left
        (fun total pivot ->
          (* Parametrize the facet by the coordinate with the largest pivot. *)
          let k = ref 0 in
          Array.iteri (fun j c -> if Q.compare (Q.abs c) (Q.abs pivot.row.(!k)) > 0 then k := j) pivot.row;
          let facet = List.filter (fun c -> c != pivot) cstrs |> List.map (substitute ~k:!k ~pivot) in
          let sub = volume_rec calls (dim - 1) facet in
          if Q.is_zero sub then total
          else Q.add total (Q.div (Q.mul pivot.rhs sub) (Q.mul (Q.of_int dim) (Q.abs pivot.row.(!k)))))
        Q.zero cstrs

(* Emptiness in dims 0 and 1 and boundedness everywhere are decided
   without an LP (see the interface); the feasibility LP spares dims
   >= 2 the recursion over every facet of an empty system. *)
let volume_system ?(calls = ref 0) ?(nonempty = false) ~dim a b =
  if Array.length a <> Array.length b then invalid_arg "Volume_exact.volume_system";
  if dim = 0 then (if Array.for_all (fun r -> Q.sign r >= 0) b then Q.one else Q.zero)
  else if dim >= 2 && (not nonempty) && not (Es.is_feasible ~a ~b) then Q.zero
  else volume_rec calls dim (Array.to_list (Array.map2 (fun row rhs -> { row; rhs }) a b))

let tuple_system ~dim tuple =
  let rows =
    List.concat_map
      (fun (atom : Atom.t) ->
        let row = Array.make dim Q.zero in
        List.iter (fun (i, c) -> if i >= dim then invalid_arg "Volume_exact: variable out of range" else row.(i) <- c) (Term.coeffs atom.term);
        let rhs = Q.neg (Term.constant atom.term) in
        match atom.op with
        | Atom.Le | Atom.Lt -> [ (row, rhs) ]
        | Atom.Eq -> [ (row, rhs); (Array.map Q.neg row, Q.neg rhs) ])
      tuple
  in
  (Array.of_list (List.map fst rows), Array.of_list (List.map snd rows))

let tuple_rows tuple =
  List.fold_left (fun n (atom : Atom.t) -> n + if atom.op = Atom.Eq then 2 else 1) 0 tuple

let volume_tuple ?calls ?nonempty ~dim tuple =
  let a, b = tuple_system ~dim tuple in
  volume_system ?calls ?nonempty ~dim a b

let volume_relation ?(max_tuples = 16) r =
  let tuples = Array.of_list (Relation.tuples r) in
  let t = Array.length tuples in
  if t > max_tuples then invalid_arg "Volume_exact.volume_relation: too many tuples";
  let dim = Relation.dim r in
  (* Inclusion–exclusion in increasing mask order, so every subset of
     [mask] is decided first.  [zero] marks the subsets of volume 0 and
     their supersets, which are skipped; marks propagate, so checking
     the subsets one element smaller suffices. *)
  let zero = Array.make (1 lsl t) false in
  let total = ref Q.zero in
  for mask = 1 to (1 lsl t) - 1 do
    let members = List.filter (fun i -> mask land (1 lsl i) <> 0) (List.init t Fun.id) in
    if List.exists (fun i -> zero.(mask lxor (1 lsl i))) members then zero.(mask) <- true
    else begin
      let v = volume_tuple ~dim (List.concat_map (fun i -> tuples.(i)) members) in
      if Q.is_zero v then zero.(mask) <- true
      else if List.length members mod 2 = 1 then total := Q.add !total v
      else total := Q.sub !total v
    end
  done;
  !total

let float_volume_relation ?max_tuples r = Q.to_float (volume_relation ?max_tuples r)
