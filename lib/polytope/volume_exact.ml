exception Unbounded

module Es = Scdb_lp.Exact_simplex
module Q = Rational
module Z = Bigint

(* A constraint [row · x <= rhs] with integer coefficients.  Scaling a
   constraint by a positive number changes neither its halfspace nor a
   term of the recursion below, so rows are cleared of denominators once
   and stay integral. *)
type cstr = { row : Z.t array; rhs : Z.t }

(* The index of a row's first non-zero coefficient, or -1. *)
let lead row =
  let rec go i = if i = Array.length row then -1 else if Z.is_zero row.(i) then go (i + 1) else i in
  go 0

(* Whether [c'] bounds the same direction as [c], whose lead is [i]:
   a positive multiple of [c.row]. *)
let parallel i c c' =
  let a = c.row.(i) and a' = c'.row.(i) in
  Z.sign a = Z.sign a'
  && (let rec go j = j = Array.length c.row || (Z.equal (Z.mul c.row.(j) a') (Z.mul c'.row.(j) a) && go (j + 1)) in
      go 0)

(* Keep, for each distinct direction, only the tightest right-hand side;
   report [None] if a constant constraint is violated (empty set). *)
let preprocess cstrs =
  let rec go kept = function
    | [] -> Some (List.map snd kept)
    | c :: rest ->
        let i = lead c.row in
        if i < 0 then if Z.sign c.rhs < 0 then None else go kept rest
        else begin
          match List.find_opt (fun (i', c') -> i' = i && parallel i c' c) kept with
          | None -> go ((i, c) :: kept) rest
          | Some (_, c') when Z.compare (Z.mul c'.rhs (Z.abs c.row.(i))) (Z.mul c.rhs (Z.abs c'.row.(i))) <= 0 -> go kept rest
          | Some (_, c') -> go ((i, c) :: List.filter (fun (_, c'') -> c'' != c') kept) rest
        end
  in
  go [] cstrs

(* Substitute [x_k := (rhs0 − Σ_{j≠k} row0_j x_j) / row0_k] into [c],
   producing a constraint over [dim−1] variables (coordinate [k]
   removed), fraction-free: [c·|p_k| − sgn(p_k)·c_k·p], a positive
   multiple of the rational substitution. *)
let substitute ~k ~pivot c =
  let d = Array.length c.row in
  let at j = if j < k then j else j + 1 in
  let ck = c.row.(k) in
  if Z.is_zero ck then { row = Array.init (d - 1) (fun j -> c.row.(at j)); rhs = c.rhs }
  else begin
    let pk = pivot.row.(k) in
    let a = Z.abs pk and f = if Z.sign pk > 0 then ck else Z.neg ck in
    let comb x p = Z.sub (Z.mul x a) (Z.mul f p) in
    { row = Array.init (d - 1) (fun j -> comb c.row.(at j) pivot.row.(at j)); rhs = comb c.rhs pivot.rhs }
  end

(* The 1-D base case in one scan: the tightest bounds x >= n/d (from
   a < 0) and x <= n/d (a > 0), kept as integer pairs with d > 0 and
   compared by cross-multiplication. *)
let interval cstrs =
  let infeasible = ref false and lo = ref None and hi = ref None in
  List.iter
    (fun c ->
      let a = c.row.(0) in
      match Z.sign a with
      | 0 -> if Z.sign c.rhs < 0 then infeasible := true
      | 1 -> (
          match !hi with
          | Some (n, d) when Z.compare (Z.mul n a) (Z.mul c.rhs d) <= 0 -> ()
          | _ -> hi := Some (c.rhs, a))
      | _ -> (
          let n = Z.neg c.rhs and d = Z.neg a in
          match !lo with
          | Some (n', d') when Z.compare (Z.mul n' d) (Z.mul n d') >= 0 -> ()
          | _ -> lo := Some (n, d)))
    cstrs;
  if !infeasible then Q.zero
  else
    match (!lo, !hi) with
    | Some (ln, ld), Some (hn, hd) ->
        let w = Z.sub (Z.mul hn ld) (Z.mul ln hd) in
        if Z.sign w <= 0 then Q.zero else Q.make w (Z.mul hd ld)
    | _ -> raise Unbounded

(* [calls] counts the invocations, the unit [Cost.lasserre_calls]
   bounds. *)
let rec volume_rec calls dim cstrs =
  incr calls;
  if dim = 1 then interval cstrs
  else
    match preprocess cstrs with
    | None -> Q.zero
    | Some [] -> raise Unbounded
    | Some cstrs ->
        List.fold_left
          (fun total pivot ->
            (* Parametrize the facet by the coordinate with the largest pivot. *)
            let k = ref 0 in
            Array.iteri (fun j c -> if Z.compare (Z.abs c) (Z.abs pivot.row.(!k)) > 0 then k := j) pivot.row;
            let facet = List.filter (fun c -> c != pivot) cstrs |> List.map (substitute ~k:!k ~pivot) in
            let sub = volume_rec calls (dim - 1) facet in
            if Q.is_zero sub then total
            else Q.add total (Q.mul (Q.make pivot.rhs (Z.mul_int (Z.abs pivot.row.(!k)) dim)) sub))
          Q.zero cstrs

(* Emptiness in dims 0 and 1 and boundedness everywhere are decided
   without an LP (see the interface); the feasibility LP spares dims
   >= 2 the recursion over every facet of an empty system. *)
let volume_integer_system ?(calls = ref 0) ?(nonempty = false) ~dim a b =
  if Array.length a <> Array.length b then invalid_arg "Volume_exact.volume_integer_system";
  if dim = 0 then (if Array.for_all (fun r -> Z.sign r >= 0) b then Q.one else Q.zero)
  else if
    dim >= 2 && (not nonempty)
    && not (Es.is_feasible ~a:(Array.map (Array.map Q.of_bigint) a) ~b:(Array.map Q.of_bigint b))
  then Q.zero
  else volume_rec calls dim (Array.to_list (Array.map2 (fun row rhs -> { row; rhs }) a b))

(* Multiply a rational row and its right-hand side by the lcm of their
   denominators. *)
let clear_denominators row (rhs : Q.t) =
  let l = Array.fold_left (fun l (x : Q.t) -> if Z.equal x.den Z.one then l else Z.lcm l x.den) rhs.den row in
  let scale (x : Q.t) = if Z.equal x.den l then x.num else Z.mul x.num (Z.div l x.den) in
  (Array.map scale row, scale rhs)

let volume_system ?calls ?nonempty ~dim a b =
  if Array.length a <> Array.length b then invalid_arg "Volume_exact.volume_system";
  let rows = Array.map2 clear_denominators a b in
  volume_integer_system ?calls ?nonempty ~dim (Array.map fst rows) (Array.map snd rows)

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
