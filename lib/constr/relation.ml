type t = { dim : int; tuples : Dnf.tuple list }

let check_vars dim tuples =
  List.iter
    (fun tuple ->
      List.iter
        (fun a ->
          if Atom.max_var a >= dim then
            invalid_arg
              (Printf.sprintf "Relation.make: variable x%d out of dimension %d" (Atom.max_var a) dim))
        tuple)
    tuples

let make ~dim tuples =
  check_vars dim tuples;
  { dim; tuples = List.filter_map Dnf.simplify_tuple tuples }

let of_formula ~dim f =
  Scdb_trace.Trace.span "dnf.normalize" ~attrs:[ ("dim", string_of_int dim) ] @@ fun () ->
  let r = make ~dim (Dnf.of_formula f) in
  Scdb_trace.Trace.add_attr_int "tuples" (List.length r.tuples);
  r

let to_formula r = Dnf.to_formula r.tuples
let dim r = r.dim
let tuples r = r.tuples

let mem r x = List.exists (fun t -> Dnf.tuple_holds t x) r.tuples
let mem_float ?slack r x = List.exists (fun t -> Dnf.tuple_holds_float ?slack t x) r.tuples

(* The membership test lowered once: every atom's {!Term.float_row} in
   flat arrays, tuple by tuple.  [tuple_start.(t)] and [row_start.(a)]
   index the first atom of tuple [t] and the first term of atom [a];
   each array has one extra closing entry. *)
type lowered = {
  slack : float;
  tuple_start : int array;
  op : int array;  (* per atom: 0 [<=], 1 [<], 2 [=] *)
  const : float array;  (* per atom *)
  row_start : int array;
  var : int array;  (* per term *)
  coeff : float array;  (* per term *)
}

let lower ?(slack = 0.0) r =
  let atoms = List.concat r.tuples in
  let rows = List.map (fun (a : Atom.t) -> Term.float_row a.Atom.term) atoms in
  let starts lengths =
    let s = Array.make (List.length lengths + 1) 0 in
    List.iteri (fun i n -> s.(i + 1) <- s.(i) + n) lengths;
    s
  in
  let terms = List.concat_map fst rows in
  {
    slack;
    tuple_start = starts (List.map List.length r.tuples);
    op =
      Array.of_list
        (List.map (fun (a : Atom.t) -> match a.Atom.op with Atom.Le -> 0 | Atom.Lt -> 1 | Atom.Eq -> 2) atoms);
    const = Array.of_list (List.map snd rows);
    row_start = starts (List.map (fun (ws, _) -> List.length ws) rows);
    var = Array.of_list (List.map fst terms);
    coeff = Array.of_list (List.map snd terms);
  }

(* [mem_float]'s arithmetic: per atom the constant, then coefficient ·
   coordinate in ascending variable order; the first tuple whose atoms
   all hold accepts. *)
let mem_lowered l x =
  let slack = l.slack and ntuples = Array.length l.tuple_start - 1 in
  let found = ref false and t = ref 0 in
  while (not !found) && !t < ntuples do
    let a = ref (Array.unsafe_get l.tuple_start !t) in
    let last = Array.unsafe_get l.tuple_start (!t + 1) in
    let holds = ref true in
    while !holds && !a < last do
      let atom = !a in
      let acc = ref (Array.unsafe_get l.const atom) in
      for k = Array.unsafe_get l.row_start atom to Array.unsafe_get l.row_start (atom + 1) - 1 do
        acc := !acc +. (Array.unsafe_get l.coeff k *. x.(Array.unsafe_get l.var k))
      done;
      let v = !acc in
      holds :=
        (match Array.unsafe_get l.op atom with
        | 0 -> v <= slack
        | 1 -> v < slack
        | _ -> Float.abs v <= slack);
      incr a
    done;
    if !holds then found := true;
    incr t
  done;
  !found

let mem_fn ?slack r =
  let l = lazy (lower ?slack r) in
  fun x -> mem_lowered (Lazy.force l) x

let union a b =
  if a.dim <> b.dim then invalid_arg "Relation.union: dimension mismatch";
  { dim = a.dim; tuples = a.tuples @ b.tuples }

let inter a b =
  if a.dim <> b.dim then invalid_arg "Relation.inter: dimension mismatch";
  let tuples =
    List.concat_map (fun ta -> List.filter_map (fun tb -> Dnf.simplify_tuple (ta @ tb)) b.tuples) a.tuples
  in
  { dim = a.dim; tuples }

let complement_tuple tuple r =
  (* tuple ∧ ¬(∨ tuples of r): push the negation through DNF. *)
  let negated =
    Formula.conj
      (List.map
         (fun t -> Formula.neg (Dnf.tuple_to_formula t))
         r.tuples)
  in
  let f = Formula.conj [ Dnf.tuple_to_formula tuple; negated ] in
  let tuples = Dnf.of_formula f in
  if tuples = [] then None else Some { dim = r.dim; tuples }

let diff a b =
  if a.dim <> b.dim then invalid_arg "Relation.diff: dimension mismatch";
  let pieces = List.filter_map (fun t -> complement_tuple t b) a.tuples in
  { dim = a.dim; tuples = List.concat_map (fun r -> r.tuples) pieces }

let is_syntactically_empty r = r.tuples = []

let box lo hi =
  let d = Array.length lo in
  if Array.length hi <> d then invalid_arg "Relation.box: dimension mismatch";
  let atoms = ref [] in
  for i = d - 1 downto 0 do
    (* lo_i <= x_i <= hi_i *)
    atoms := Atom.le (Term.var i) (Term.const hi.(i)) :: Atom.ge (Term.var i) (Term.const lo.(i)) :: !atoms
  done;
  make ~dim:d [ !atoms ]

let unit_cube d = box (Array.make d Rational.zero) (Array.make d Rational.one)
let cube d r = box (Array.make d (Rational.neg r)) (Array.make d r)

let standard_simplex d =
  let nonneg = List.init d (fun i -> Atom.ge (Term.var i) Term.zero) in
  let sum = List.fold_left (fun acc i -> Term.add acc (Term.var i)) Term.zero (List.init d Fun.id) in
  make ~dim:d [ Atom.le sum (Term.const Rational.one) :: nonneg ]

let cross_polytope d r =
  (* Σ εᵢ xᵢ <= r for every sign pattern ε. *)
  let rec patterns i acc =
    if i = d then [ acc ]
    else patterns (i + 1) ((1, i) :: acc) @ patterns (i + 1) ((-1, i) :: acc)
  in
  let facet signs =
    let term =
      List.fold_left
        (fun acc (s, i) -> Term.add acc (Term.monomial (Rational.of_int s) i))
        Term.zero signs
    in
    Atom.le term (Term.const r)
  in
  make ~dim:d [ List.map facet (patterns 0 []) ]

let halfspace ~dim term = make ~dim [ [ Atom.make term Atom.Le ] ]


(* ---------------- canonical fingerprints ---------------- *)

(* One atom as canonical text.  The term is rescaled so the leading
   non-zero coefficient (first by variable order, else the constant)
   has absolute value 1 — [2x - 2 <= 0] and [x - 1 <= 0] are the same
   constraint and must hash identically.  Equality atoms additionally
   fix the leading sign, since [t = 0] and [-t = 0] coincide.
   Rational.to_string is canonical over the reduced representation, so
   the text (and the hash) is independent of how the coefficients were
   computed — including the Small/Big bigint boundary. *)
let canonical_atom (a : Atom.t) =
  let t = a.Atom.term in
  let lead =
    match Term.coeffs t with (_, c) :: _ -> c | [] -> Term.constant t
  in
  let t =
    if Rational.is_zero lead then t
    else begin
      let scale =
        match a.Atom.op with
        | Atom.Eq -> Rational.inv lead (* sign-normalizing: lead becomes +1 *)
        | Atom.Le | Atom.Lt -> Rational.inv (Rational.abs lead)
      in
      Term.scale scale t
    end
  in
  let op = match a.Atom.op with Atom.Le -> "<=" | Atom.Lt -> "<" | Atom.Eq -> "=" in
  let buf = Buffer.create 32 in
  List.iter
    (fun (i, c) -> Buffer.add_string buf (Printf.sprintf "%d*%s+" i (Rational.to_string c)))
    (Term.coeffs t);
  Buffer.add_string buf (Rational.to_string (Term.constant t));
  Buffer.add_string buf op;
  Buffer.contents buf

let fnv64 s =
  let prime = 0x100000001b3L in
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) prime)
    s;
  !h

let fingerprint r =
  let tuple_key tuple =
    String.concat ";" (List.sort_uniq String.compare (List.map canonical_atom tuple))
  in
  let keys = List.sort_uniq String.compare (List.map tuple_key r.tuples) in
  let payload = Printf.sprintf "dim=%d|%s" r.dim (String.concat "|" keys) in
  Printf.sprintf "%016Lx" (fnv64 payload)

let to_text r =
  if r.tuples = [] then "false"
  else Format.asprintf "%a" Formula.pp (Dnf.to_formula r.tuples)

let pp fmt r =
  Format.fprintf fmt "@[<v>dim %d:@ %a@]" r.dim
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut (fun f t ->
         Format.fprintf f "| %a" Formula.pp (Dnf.tuple_to_formula t)))
    r.tuples
