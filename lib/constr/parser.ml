exception Parse_error of string
exception Lex_error = Lexer.Lex_error

type 'f connectives = {
  atom : Atom.t -> 'f;
  conj : 'f list -> 'f;
  disj : 'f list -> 'f;
  neg : 'f -> 'f;
  exists : int list -> 'f -> 'f;
  forall : int list -> 'f -> 'f;
  relation : (string -> int list -> 'f) option;
}

let formula =
  {
    atom = Formula.atom;
    conj = Formula.conj;
    disj = Formula.disj;
    neg = Formula.neg;
    exists = Formula.exists;
    forall = Formula.forall;
    relation = None;
  }

type 'f state = { mutable tokens : Lexer.token list; mutable next_var : int; c : 'f connectives }

let peek st = match st.tokens with [] -> Lexer.EOF | t :: _ -> t

let advance st = match st.tokens with [] -> () | _ :: rest -> st.tokens <- rest

let expect st token =
  if peek st = token then advance st
  else
    raise
      (Parse_error
         (Format.asprintf "expected %a but found %a" Lexer.pp_token token Lexer.pp_token (peek st)))

let fail_at st msg =
  raise (Parse_error (Format.asprintf "%s (at %a)" msg Lexer.pp_token (peek st)))

(* Environment: [(string * int) list], name -> variable index, with
   shadowing decided by assoc order. *)
let lookup env name =
  match List.assoc_opt name env with
  | Some i -> i
  | None -> raise (Parse_error (Printf.sprintf "unknown variable %S" name))

(* With a relation hook, uppercase identifiers name relations, never
   variables. *)
let is_relation st name =
  Option.is_some st.c.relation && name <> "" && name.[0] >= 'A' && name.[0] <= 'Z'

(* --- expressions ------------------------------------------------------ *)

let rec parse_expr st env =
  let negated = peek st = Lexer.MINUS in
  if negated then advance st;
  let first = parse_term st env in
  let first = if negated then Term.neg first else first in
  let rec loop acc =
    match peek st with
    | Lexer.PLUS ->
        advance st;
        loop (Term.add acc (parse_term st env))
    | Lexer.MINUS ->
        advance st;
        loop (Term.sub acc (parse_term st env))
    | _ -> acc
  in
  loop first

and parse_term st env =
  let first = parse_factor st env in
  let rec loop acc =
    match peek st with
    | Lexer.STAR ->
        advance st;
        let rhs = parse_factor st env in
        if Term.is_const acc then loop (Term.scale (Term.constant acc) rhs)
        else if Term.is_const rhs then loop (Term.scale (Term.constant rhs) acc)
        else raise (Parse_error "non-linear product of two variables")
    | Lexer.SLASH ->
        advance st;
        let rhs = parse_factor st env in
        if not (Term.is_const rhs) then raise (Parse_error "division by a variable")
        else if Rational.is_zero (Term.constant rhs) then raise (Parse_error "division by zero")
        else loop (Term.scale (Rational.inv (Term.constant rhs)) acc)
    | _ -> acc
  in
  loop first

and parse_factor st env =
  match peek st with
  | Lexer.NUM q ->
      advance st;
      Term.const q
  | Lexer.IDENT name when not (is_relation st name) ->
      advance st;
      Term.var (lookup env name)
  | Lexer.MINUS ->
      advance st;
      Term.neg (parse_factor st env)
  | Lexer.LPAREN ->
      advance st;
      let e = parse_expr st env in
      expect st Lexer.RPAREN;
      e
  | _ -> fail_at st "expected an arithmetic factor"

(* --- formulas --------------------------------------------------------- *)

let relop_of_token = function
  | Lexer.LE -> Some `Le
  | Lexer.LT -> Some `Lt
  | Lexer.GE -> Some `Ge
  | Lexer.GT -> Some `Gt
  | Lexer.EQ -> Some `Eq
  | Lexer.NEQ -> Some `Neq
  | _ -> None

let apply_relop c op lhs rhs =
  match op with
  | `Le -> c.atom (Atom.le lhs rhs)
  | `Lt -> c.atom (Atom.lt lhs rhs)
  | `Ge -> c.atom (Atom.ge lhs rhs)
  | `Gt -> c.atom (Atom.gt lhs rhs)
  | `Eq -> c.atom (Atom.eq lhs rhs)
  | `Neq -> c.neg (c.atom (Atom.eq lhs rhs))

let rec parse_formula st env =
  match peek st with
  | Lexer.EXISTS | Lexer.FORALL ->
      let quantifier = peek st in
      advance st;
      let rec names acc =
        match peek st with
        | Lexer.IDENT n when not (is_relation st n) ->
            advance st;
            if peek st = Lexer.COMMA then advance st;
            names (n :: acc)
        | _ -> List.rev acc
      in
      let ns = names [] in
      if ns = [] then fail_at st "expected variable names after quantifier";
      expect st Lexer.DOT;
      let indices = List.map (fun _ -> let i = st.next_var in st.next_var <- st.next_var + 1; i) ns in
      let env' = List.rev_append (List.combine ns indices) env in
      let body = parse_formula st env' in
      if quantifier = Lexer.EXISTS then st.c.exists indices body else st.c.forall indices body
  | _ -> parse_implication st env

and parse_implication st env =
  let lhs = parse_disjunction st env in
  if peek st = Lexer.IMPLIES then begin
    advance st;
    let rhs = parse_formula st env in
    st.c.disj [ st.c.neg lhs; rhs ]
  end
  else lhs

and parse_disjunction st env =
  let first = parse_conjunction st env in
  let rec loop acc =
    if peek st = Lexer.OR then begin
      advance st;
      loop (parse_conjunction st env :: acc)
    end
    else st.c.disj (List.rev acc)
  in
  loop [ first ]

and parse_conjunction st env =
  let first = parse_unary st env in
  let rec loop acc =
    if peek st = Lexer.AND then begin
      advance st;
      loop (parse_unary st env :: acc)
    end
    else st.c.conj (List.rev acc)
  in
  loop [ first ]

and parse_unary st env =
  match peek st with
  | Lexer.NOT ->
      advance st;
      st.c.neg (parse_unary st env)
  | Lexer.TRUE ->
      advance st;
      st.c.conj []
  | Lexer.FALSE ->
      advance st;
      st.c.disj []
  | Lexer.EXISTS | Lexer.FORALL -> parse_formula st env
  | Lexer.IDENT name when is_relation st name ->
      advance st;
      expect st Lexer.LPAREN;
      let rec args () =
        match peek st with
        | Lexer.IDENT n when not (is_relation st n) ->
            advance st;
            let i = lookup env n in
            if peek st = Lexer.COMMA then (advance st; i :: args ()) else [ i ]
        | _ -> fail_at st (Printf.sprintf "expected a variable name in %s(...)" name)
      in
      let arguments = args () in
      expect st Lexer.RPAREN;
      Option.get st.c.relation name arguments
  | Lexer.LPAREN ->
      (* Could be a parenthesized formula or a parenthesized expression
         starting an atom: backtrack on failure. *)
      let saved = st.tokens in
      (try
         advance st;
         let f = parse_formula st env in
         expect st Lexer.RPAREN;
         (* If a relational operator follows, this was an expression. *)
         match relop_of_token (peek st) with
         | Some _ ->
             st.tokens <- saved;
             parse_atom st env
         | None -> f
       with Parse_error _ ->
         st.tokens <- saved;
         parse_atom st env)
  | _ -> parse_atom st env

and parse_atom st env =
  let lhs = parse_expr st env in
  match relop_of_token (peek st) with
  | None -> fail_at st "expected a comparison operator"
  | Some _ ->
      (* Chains: e1 op e2 op e3 ... become conjunctions of adjacent pairs. *)
      let rec chain acc lhs =
        match relop_of_token (peek st) with
        | None -> st.c.conj (List.rev acc)
        | Some op ->
            advance st;
            let rhs = parse_expr st env in
            chain (apply_relop st.c op lhs rhs :: acc) rhs
      in
      chain [] lhs

let parse_with c ~vars input =
  let rec check_distinct = function
    | v :: rest when List.mem v rest -> raise (Parse_error (Printf.sprintf "duplicate variable %s" v))
    | _ :: rest -> check_distinct rest
    | [] -> ()
  in
  check_distinct vars;
  let tokens = Lexer.tokenize input in
  let env = List.mapi (fun i n -> (n, i)) vars in
  let st = { tokens; next_var = List.length vars; c } in
  let f = parse_formula st (List.rev env) in
  expect st Lexer.EOF;
  f

let parse ~vars input = parse_with formula ~vars input

let parse_relation ~vars input =
  let f = parse ~vars input in
  if not (Formula.is_quantifier_free f) then
    raise (Parse_error "parse_relation: formula has quantifiers (eliminate them first)");
  Relation.of_formula ~dim:(List.length vars) f
