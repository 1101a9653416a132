(* Tests for terms, atoms, formulas, DNF, relations and the parser. *)

module Q = Rational

let t name f = Alcotest.test_case name `Quick f

let qt ?(count = 200) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

let q = Q.of_int
let qi = Q.of_ints

let term_str te = Format.asprintf "%a" Term.pp te

let term_tests =
  [
    t "construction and printing" (fun () ->
        let te = Term.make [ (0, q 2); (1, q (-1)) ] (q 3) in
        Alcotest.(check string) "print" "2*x0 - x1 + 3" (term_str te));
    t "normalization drops zeros" (fun () ->
        let te = Term.make [ (0, q 1); (0, q (-1)) ] Q.zero in
        Alcotest.(check bool) "is_const" true (Term.is_const te);
        Alcotest.(check bool) "equal zero" true (Term.equal te Term.zero));
    t "eval exact" (fun () ->
        let te = Term.make [ (0, qi 1 2); (2, q 3) ] (q (-1)) in
        let v = Term.eval te [| q 4; q 0; q 2 |] in
        Alcotest.(check string) "value" "7" (Q.to_string v));
    t "eval_float matches eval" (fun () ->
        let te = Term.make [ (0, qi 1 4); (1, q (-2)) ] (qi 3 2) in
        let exact = Q.to_float (Term.eval te [| q 2; q 1 |]) in
        Alcotest.(check (float 1e-12)) "agree" exact (Term.eval_float te [| 2.0; 1.0 |]));
    t "subst" (fun () ->
        (* x0 + x1 with x1 := 2 x0 - 1  ->  3 x0 - 1 *)
        let te = Term.add (Term.var 0) (Term.var 1) in
        let u = Term.sub (Term.scale (q 2) (Term.var 0)) (Term.const Q.one) in
        Alcotest.(check string) "subst" "3*x0 - 1" (term_str (Term.subst te 1 u)));
    t "rename merges on collision" (fun () ->
        let te = Term.add (Term.var 0) (Term.var 1) in
        let merged = Term.rename te (fun _ -> 5) in
        Alcotest.(check string) "2*x5" "2*x5" (term_str merged));
    t "to_float_row" (fun () ->
        let te = Term.make [ (1, qi 1 2) ] (q 3) in
        let w, c = Term.to_float_row 3 te in
        Alcotest.(check bool) "w" true (Vec.equal_eps 1e-12 [| 0.; 0.5; 0. |] w);
        Alcotest.(check (float 1e-12)) "c" 3.0 c);
    qt "terms are linear maps" (QCheck.make QCheck.Gen.(int_range 0 100_000)) (fun seed ->
        let rng = Scdb_rng.Rng.create seed in
        let rand_term () =
          Term.make
            [ (0, q (Scdb_rng.Rng.int rng 9 - 4)); (1, q (Scdb_rng.Rng.int rng 9 - 4)) ]
            (q (Scdb_rng.Rng.int rng 9 - 4))
        in
        let a = rand_term () and b = rand_term () in
        let x = [| Q.of_ints (Scdb_rng.Rng.int rng 11 - 5) 2; Q.of_ints (Scdb_rng.Rng.int rng 11 - 5) 3 |] in
        (* affine evaluation is linear in the term *)
        Q.equal (Term.eval (Term.add a b) x) (Q.add (Term.eval a x) (Term.eval b x))
        && Q.equal (Term.eval (Term.scale (q 3) a) x) (Q.mul (q 3) (Term.eval a x))
        && Q.equal (Term.eval (Term.neg a) x) (Q.neg (Term.eval a x)));
    t "to_float_row range check" (fun () ->
        try
          ignore (Term.to_float_row 1 (Term.var 3));
          Alcotest.fail "expected Invalid_argument"
        with Invalid_argument _ -> ());
    t "float_row scales an over-range atom by a power of two" (fun () ->
        (* 10^400·x − (10^400 + 1): both parts overflow a float. *)
        let big = Q.of_string ("1" ^ String.make 400 '0') in
        let te = Term.make [ (0, big) ] (Q.neg (Q.add big Q.one)) in
        let ws, c = Term.float_row te in
        let w = List.assoc 0 ws in
        Alcotest.(check bool) "finite" true (Float.is_finite w && Float.is_finite c);
        Alcotest.(check (float 1e-15)) "ratio" 1.0 (-.c /. w);
        Alcotest.(check bool) "near 1" true (w >= 0.5 && w <= 2.0);
        Alcotest.(check bool) "x = 1/2 satisfies it" true (Term.eval_float te [| 0.5 |] < 0.0);
        let atom = Atom.make te Atom.Le in
        let poly = Scdb_polytope.Polytope.of_tuple ~dim:1 [ atom ] in
        Alcotest.(check bool) "polytope row finite" true
          (Array.for_all Float.is_finite poly.Scdb_polytope.Polytope.b));
    t "float_row keeps the bits of an in-range term" (fun () ->
        let te = Term.make [ (0, qi 1 3); (2, q (-7)) ] (qi 2 3) in
        let ws, c = Term.float_row te in
        Alcotest.(check (list (pair int (float 0.0)))) "coeffs"
          [ (0, Q.to_float (qi 1 3)); (2, -7.0) ] ws;
        Alcotest.(check (float 0.0)) "constant" (Q.to_float (qi 2 3)) c;
        Alcotest.(check (float 0.0)) "eval_float"
          (Q.to_float (qi 2 3) +. (Q.to_float (qi 1 3) *. 0.25) +. (-7.0 *. 1.5))
          (Term.eval_float te [| 0.25; 0.0; 1.5 |]));
  ]

let atom_tests =
  [
    t "normal form and holds" (fun () ->
        (* x0 <= 3 *)
        let a = Atom.le (Term.var 0) (Term.const (q 3)) in
        Alcotest.(check bool) "2<=3" true (Atom.holds a [| q 2 |]);
        Alcotest.(check bool) "3<=3" true (Atom.holds a [| q 3 |]);
        Alcotest.(check bool) "4<=3" false (Atom.holds a [| q 4 |]));
    t "strictness" (fun () ->
        let a = Atom.lt (Term.var 0) (Term.const (q 3)) in
        Alcotest.(check bool) "3<3" false (Atom.holds a [| q 3 |]));
    t "negate is complement" (fun () ->
        let pts = List.map (fun i -> [| qi i 2 |]) [ -4; -1; 0; 1; 3; 6 ] in
        List.iter
          (fun a ->
            let negs = Atom.negate a in
            List.iter
              (fun x ->
                let original = Atom.holds a x in
                let negated = List.exists (fun n -> Atom.holds n x) negs in
                Alcotest.(check bool) "complement" (not original) negated)
              pts)
          [
            Atom.le (Term.var 0) (Term.const Q.one);
            Atom.lt (Term.var 0) (Term.const Q.one);
            Atom.eq (Term.var 0) (Term.const Q.one);
          ]);
    t "trivial detection" (fun () ->
        Alcotest.(check bool) "-1<=0 true" true
          (Atom.is_trivially_true (Atom.le (Term.const (q (-1))) Term.zero));
        Alcotest.(check bool) "1<=0 false" true
          (Atom.is_trivially_false (Atom.le (Term.const Q.one) Term.zero));
        Alcotest.(check bool) "0<0 false" true
          (Atom.is_trivially_false (Atom.lt Term.zero Term.zero)));
    t "holds_certified agrees with exact membership away from the boundary" (fun () ->
        let a = Atom.le (Term.add (Term.var 0) (Term.var 1)) (Term.const Q.one) in
        Alcotest.(check (option bool)) "inside" (Some true) (Atom.holds_certified a [| 0.25; 0.25 |]);
        Alcotest.(check (option bool)) "outside" (Some false) (Atom.holds_certified a [| 0.75; 0.75 |]);
        (* exactly on the boundary: undecidable in float precision *)
        Alcotest.(check (option bool)) "boundary" None (Atom.holds_certified a [| 0.5; 0.5 |]));
    t "holds_certified never contradicts exact arithmetic" (fun () ->
        let a = Atom.le (Term.make [ (0, Q.of_ints 1 3) ] (Q.of_ints (-1) 7)) Term.zero in
        List.iter
          (fun v ->
            let exact = Atom.holds a [| Q.of_float v |] in
            match Atom.holds_certified a [| v |] with
            | Some b -> Alcotest.(check bool) "consistent" exact b
            | None -> ())
          [ -1.0; 0.0; 0.42857; 0.43; 1.0; 3.5 ]);
    t "to_halfspace rejects equalities" (fun () ->
        try
          ignore (Atom.to_halfspace 1 (Atom.eq (Term.var 0) Term.zero));
          Alcotest.fail "expected Invalid_argument"
        with Invalid_argument _ -> ());
  ]

let formula_of_string ?(vars = [ "x"; "y" ]) s = Parser.parse ~vars s

let formula_tests =
  [
    t "smart constructors simplify" (fun () ->
        Alcotest.(check bool) "and []" true (Formula.equal Formula.tru (Formula.conj []));
        Alcotest.(check bool) "or []" true (Formula.equal Formula.fls (Formula.disj []));
        Alcotest.(check bool) "and false" true
          (Formula.equal Formula.fls (Formula.conj [ Formula.tru; Formula.fls ])));
    t "free variables" (fun () ->
        let f = formula_of_string "exists z. x + z <= 1 /\\ y >= 0" in
        Alcotest.(check (list int)) "free" [ 0; 1 ] (Formula.free_vars f));
    t "eval quantifier-free" (fun () ->
        let f = formula_of_string "x + y <= 2 /\\ (x >= 1 \\/ y >= 1)" in
        Alcotest.(check bool) "in" true (Formula.eval f [| q 1; q 1 |]);
        Alcotest.(check bool) "out" false (Formula.eval f [| q 0; q 0 |]));
    t "eval rejects quantifiers" (fun () ->
        let f = formula_of_string "exists z. z >= x" in
        try
          ignore (Formula.eval f [| q 0; q 0 |]);
          Alcotest.fail "expected Invalid_argument"
        with Invalid_argument _ -> ());
    t "nnf eliminates negation" (fun () ->
        let f = formula_of_string "~(x <= 1 /\\ ~(y <= 2))" in
        let g = Formula.nnf f in
        let rec no_not = function
          | Formula.Not _ -> false
          | Formula.And fs | Formula.Or fs -> List.for_all no_not fs
          | Formula.Exists (_, f) | Formula.Forall (_, f) -> no_not f
          | _ -> true
        in
        Alcotest.(check bool) "no Not" true (no_not g);
        (* semantics preserved on a grid of points *)
        List.iter
          (fun (a, b) ->
            let x = [| q a; q b |] in
            Alcotest.(check bool) "same" (Formula.eval f x) (Formula.eval g x))
          [ (0, 0); (1, 2); (2, 3); (1, 3); (2, 2) ]);
    t "forall via nnf" (fun () ->
        let f = Parser.parse ~vars:[ "x" ] "forall y. y <= x \\/ y >= 0" in
        Alcotest.(check bool) "has quantifier" false (Formula.is_quantifier_free f));

    t "nnf_deep removes Not with quantifier duality" (fun () ->
        let f = formula_of_string "~(exists z. z >= x /\\ z <= y)" in
        let g = Formula.nnf_deep f in
        let rec no_not = function
          | Formula.Not _ -> false
          | Formula.And fs | Formula.Or fs -> List.for_all no_not fs
          | Formula.Exists (_, f) | Formula.Forall (_, f) -> no_not f
          | _ -> true
        in
        Alcotest.(check bool) "no Not" true (no_not g);
        Alcotest.(check bool) "has forall" true
          (match g with Formula.Forall _ -> true | _ -> false));
    t "prenex produces a quantifier-free matrix" (fun () ->
        let f =
          formula_of_string
            "(exists z. z >= x) /\\ ~(exists w. w <= y) \\/ x <= 0"
        in
        let prefix, matrix = Formula.prenex f in
        Alcotest.(check bool) "matrix qf" true (Formula.is_quantifier_free matrix);
        Alcotest.(check bool) "prefix nonempty" true (prefix <> []);
        (* round trip through of_prenex then QE agrees with direct QE *)
        let module FM = Scdb_qe.Fourier_motzkin in
        let direct = FM.eliminate f in
        let via = FM.eliminate (Formula.of_prenex (prefix, matrix)) in
        List.iter
          (fun (a, b) ->
            let x = [| qi a 2; qi b 2 |] in
            Alcotest.(check bool) "same semantics"
              (Formula.eval (Formula.nnf direct) x)
              (Formula.eval (Formula.nnf via) x))
          [ (0, 0); (1, 1); (-1, 2); (3, -2); (2, 2) ]);
    t "prenex renames to avoid capture" (fun () ->
        (* exists z over x<=z nested in a context also using index 2 *)
        let inner = Formula.exists [ 2 ] (Formula.atom (Atom.le (Term.var 0) (Term.var 2))) in
        let outer = Formula.conj [ inner; Formula.exists [ 2 ] (Formula.atom (Atom.ge (Term.var 1) (Term.var 2))) ] in
        let prefix, matrix = Formula.prenex outer in
        let bound = List.concat_map (function Formula.E vs | Formula.A vs -> vs) prefix in
        Alcotest.(check int) "two distinct binders" 2 (List.length (List.sort_uniq compare bound));
        Alcotest.(check bool) "fresh names" true (List.for_all (fun v -> v > 2) bound);
        Alcotest.(check bool) "matrix qf" true (Formula.is_quantifier_free matrix));
    qt "nnf preserves semantics" (QCheck.make QCheck.Gen.(int_range 0 100_000)) (fun seed ->
        let rng = Scdb_rng.Rng.create seed in
        (* Random QF formula over 2 vars with small integer coefficients. *)
        let rec gen depth =
          if depth = 0 || Scdb_rng.Rng.int rng 3 = 0 then begin
            let te =
              Term.make
                [ (0, q (Scdb_rng.Rng.int rng 5 - 2)); (1, q (Scdb_rng.Rng.int rng 5 - 2)) ]
                (q (Scdb_rng.Rng.int rng 7 - 3))
            in
            Formula.atom (Atom.make te (match Scdb_rng.Rng.int rng 3 with 0 -> Atom.Le | 1 -> Atom.Lt | _ -> Atom.Eq))
          end
          else
            match Scdb_rng.Rng.int rng 3 with
            | 0 -> Formula.conj [ gen (depth - 1); gen (depth - 1) ]
            | 1 -> Formula.disj [ gen (depth - 1); gen (depth - 1) ]
            | _ -> Formula.neg (gen (depth - 1))
        in
        let f = gen 3 in
        let g = Formula.nnf f in
        List.for_all
          (fun _ ->
            let x = [| qi (Scdb_rng.Rng.int rng 9 - 4) 2; qi (Scdb_rng.Rng.int rng 9 - 4) 2 |] in
            Formula.eval f x = Formula.eval g x)
          (List.init 10 Fun.id));
  ]

let dnf_tests =
  [
    t "distribution" (fun () ->
        let f = formula_of_string "(x <= 1 \\/ y <= 1) /\\ (x >= 0 \\/ y >= 0)" in
        let tuples = Dnf.of_formula f in
        Alcotest.(check int) "4 tuples" 4 (List.length tuples));
    t "semantics preserved" (fun () ->
        let f = formula_of_string "(x <= 1 \\/ y <= 1) /\\ x + y >= 1 /\\ ~(x = y)" in
        let tuples = Dnf.of_formula f in
        List.iter
          (fun (a, b) ->
            let x = [| qi a 2; qi b 2 |] in
            Alcotest.(check bool) "agree" (Formula.eval (Formula.nnf f) x)
              (List.exists (fun tu -> Dnf.tuple_holds tu x) tuples))
          [ (0, 0); (1, 1); (2, 0); (0, 2); (3, 3); (2, 2); (1, 3) ]);
    t "limit guards blowup" (fun () ->
        let clause i =
          Formula.disj
            [
              Formula.atom (Atom.le (Term.var 0) (Term.const (q i)));
              Formula.atom (Atom.ge (Term.var 1) (Term.const (q i)));
            ]
        in
        let f = Formula.conj (List.init 18 clause) in
        try
          ignore (Dnf.of_formula ~limit:1000 f);
          Alcotest.fail "expected limit exceeded"
        with Invalid_argument _ -> ());
    t "simplify_tuple" (fun () ->
        let a = Atom.le (Term.var 0) (Term.const Q.one) in
        let trivially_true = Atom.le (Term.const (q (-5))) Term.zero in
        (match Dnf.simplify_tuple [ a; a; trivially_true ] with
        | Some [ _ ] -> ()
        | _ -> Alcotest.fail "expected a single atom");
        let contradiction = Atom.lt Term.zero Term.zero in
        Alcotest.(check bool) "none" true (Option.is_none (Dnf.simplify_tuple [ a; contradiction ])));
  ]

let relation_tests =
  [
    t "box membership" (fun () ->
        let r = Relation.box [| q 0; q 0 |] [| q 2; q 1 |] in
        Alcotest.(check bool) "in" true (Relation.mem r [| q 1; q 1 |]);
        Alcotest.(check bool) "out" false (Relation.mem r [| q 3; q 0 |]);
        Alcotest.(check bool) "float in" true (Relation.mem_float r [| 0.5; 0.5 |]));
    t "union and inter semantics" (fun () ->
        let a = Relation.box [| q 0 |] [| q 2 |] in
        let b = Relation.box [| q 1 |] [| q 3 |] in
        let u = Relation.union a b and i = Relation.inter a b in
        List.iter
          (fun v ->
            let x = [| qi v 2 |] in
            Alcotest.(check bool) "union" (Relation.mem a x || Relation.mem b x) (Relation.mem u x);
            Alcotest.(check bool) "inter" (Relation.mem a x && Relation.mem b x) (Relation.mem i x))
          [ -1; 0; 1; 2; 3; 4; 5; 6; 7 ]);
    t "diff semantics" (fun () ->
        let a = Relation.box [| q 0 |] [| q 3 |] in
        let b = Relation.box [| q 1 |] [| q 2 |] in
        let d = Relation.diff a b in
        List.iter
          (fun v ->
            let x = [| qi v 4 |] in
            Alcotest.(check bool) "diff" (Relation.mem a x && not (Relation.mem b x)) (Relation.mem d x))
          (List.init 16 (fun i -> i - 2)));
    t "to_text round trips through the parser" (fun () ->
        let r =
          Relation.union
            (Relation.box [| q 0; q 0 |] [| q 2; q 1 |])
            (Parser.parse_relation ~vars:[ "x0"; "x1" ] "x0 + x1 <= 1 /\\ x0 >= -1 /\\ x1 >= -1")
        in
        let text = Relation.to_text r in
        let r' = Parser.parse_relation ~vars:[ "x0"; "x1" ] text in
        List.iter
          (fun (a, b) ->
            let x = [| qi a 2; qi b 2 |] in
            Alcotest.(check bool) "same membership" (Relation.mem r x) (Relation.mem r' x))
          [ (0, 0); (1, 1); (3, 1); (-1, -1); (4, 4); (2, 2); (-3, 0) ]);
    t "to_text of empty relation" (fun () ->
        let r = Relation.make ~dim:1 [] in
        Alcotest.(check string) "false" "false" (Relation.to_text r));
    t "dimension check" (fun () ->
        try
          ignore (Relation.make ~dim:1 [ [ Atom.le (Term.var 3) Term.zero ] ]);
          Alcotest.fail "expected Invalid_argument"
        with Invalid_argument _ -> ());
    t "standard shapes" (fun () ->
        let s = Relation.standard_simplex 3 in
        Alcotest.(check bool) "inside" true (Relation.mem s [| qi 1 4; qi 1 4; qi 1 4 |]);
        Alcotest.(check bool) "outside" false (Relation.mem s [| qi 1 2; qi 1 2; qi 1 2 |]);
        let c = Relation.cross_polytope 2 Q.one in
        Alcotest.(check bool) "cross in" true (Relation.mem c [| qi 1 4; qi 1 4 |]);
        Alcotest.(check bool) "cross out" false (Relation.mem c [| qi 3 4; qi 3 4 |]));
  ]

let parser_tests =
  [
    t "operator precedence" (fun () ->
        let f = formula_of_string "x <= 1 /\\ y <= 1 \\/ x >= 2" in
        (* should parse as (x<=1 /\ y<=1) \/ x>=2 *)
        Alcotest.(check bool) "or of and" true
          (match f with Formula.Or [ Formula.And _; Formula.Atom _ ] -> true | _ -> false));
    t "chained comparisons" (fun () ->
        let f = Parser.parse ~vars:[ "x" ] "0 <= x <= 1" in
        Alcotest.(check bool) "in" true (Formula.eval f [| qi 1 2 |]);
        Alcotest.(check bool) "out" false (Formula.eval f [| q 2 |]));
    t "implication desugars" (fun () ->
        let f = formula_of_string "x >= 1 -> y >= 1" in
        Alcotest.(check bool) "vacuous" true (Formula.eval (Formula.nnf f) [| q 0; q 0 |]);
        Alcotest.(check bool) "applied" false (Formula.eval (Formula.nnf f) [| q 1; q 0 |]));
    t "rational arithmetic in literals" (fun () ->
        let r = Parser.parse_relation ~vars:[ "x" ] "x / 3 <= 1 /\\ 2 * x >= 1" in
        Alcotest.(check bool) "1/2 in" true (Relation.mem r [| qi 1 2 |]);
        Alcotest.(check bool) "3 in" true (Relation.mem r [| q 3 |]);
        Alcotest.(check bool) "4 out" false (Relation.mem r [| q 4 |]));
    t "quantifier scoping and shadowing" (fun () ->
        let f = Parser.parse ~vars:[ "x" ] "exists x. x >= 0" in
        (* bound x shadows free x: free variable list must be empty *)
        Alcotest.(check (list int)) "no free vars" [] (Formula.free_vars f));
    t "syntax errors raise" (fun () ->
        List.iter
          (fun s ->
            try
              ignore (formula_of_string s);
              Alcotest.fail ("expected Parse_error on " ^ s)
            with Parser.Parse_error _ -> ())
          [ "x <= "; "x * y <= 1"; "exists . x <= 1"; "x <= 1 /\\"; "unknown_var <= 1"; "x / y <= 1" ]);
    t "non-linear rejected" (fun () ->
        try
          ignore (formula_of_string "x * x <= 1");
          Alcotest.fail "expected Parse_error"
        with Parser.Parse_error _ -> ());
    t "parse_relation rejects quantifiers" (fun () ->
        try
          ignore (Parser.parse_relation ~vars:[ "x" ] "exists y. x <= y");
          Alcotest.fail "expected Parse_error"
        with Parser.Parse_error _ -> ());

    qt "pretty-print / parse round trip" (QCheck.make QCheck.Gen.(int_range 0 100_000)) (fun seed ->
        let rng = Scdb_rng.Rng.create seed in
        let q = Rational.of_int in
        let rec gen depth =
          if depth = 0 || Scdb_rng.Rng.int rng 3 = 0 then begin
            let te =
              Term.make
                [ (0, q (Scdb_rng.Rng.int rng 5 - 2)); (1, q (Scdb_rng.Rng.int rng 5 - 2)) ]
                (q (Scdb_rng.Rng.int rng 7 - 3))
            in
            Formula.atom (Atom.make te (if Scdb_rng.Rng.bool rng then Atom.Le else Atom.Lt))
          end
          else
            match Scdb_rng.Rng.int rng 3 with
            | 0 -> Formula.conj [ gen (depth - 1); gen (depth - 1) ]
            | 1 -> Formula.disj [ gen (depth - 1); gen (depth - 1) ]
            | _ -> Formula.neg (gen (depth - 1))
        in
        let f = gen 3 in
        QCheck.assume (f <> Formula.True && f <> Formula.False);
        let printed = Format.asprintf "%a" Formula.pp f in
        let g = Parser.parse ~vars:[ "x0"; "x1" ] printed in
        (* semantic round trip: same truth value on a grid of points *)
        List.for_all
          (fun a ->
            List.for_all
              (fun b ->
                let x = [| Rational.of_ints a 2; Rational.of_ints b 2 |] in
                Formula.eval (Formula.nnf f) x = Formula.eval (Formula.nnf g) x)
              [ -3; -1; 0; 2; 5 ])
          [ -3; -1; 0; 2; 5 ]);
    t "lexer token coverage" (fun () ->
        let toks = Lexer.tokenize "x <= 1.5 /\\ y >= -2 \\/ ~(z < 3) -> a = b /\\ c <> d" in
        Alcotest.(check bool) "ends with EOF" true (List.nth toks (List.length toks - 1) = Lexer.EOF);
        Alcotest.(check bool) "has IMPLIES" true (List.mem Lexer.IMPLIES toks);
        Alcotest.(check bool) "has NEQ" true (List.mem Lexer.NEQ toks);
        (* alternative spellings *)
        let toks2 = Lexer.tokenize "x && y || !z != w" in
        Alcotest.(check bool) "&& is AND" true (List.mem Lexer.AND toks2);
        Alcotest.(check bool) "|| is OR" true (List.mem Lexer.OR toks2);
        Alcotest.(check bool) "! is NOT" true (List.mem Lexer.NOT toks2));
    t "quantifier dot vs decimal point" (fun () ->
        (* 'exists z. 1.5 <= z' must lex the first dot as DOT, the second
           as part of the literal *)
        let f = Parser.parse ~vars:[] "exists z. 1.5 <= z /\\ z <= 2" in
        Alcotest.(check bool) "parses" true (not (Formula.is_quantifier_free f)));
    t "a variable named twice is refused, naming it" (fun () ->
        match Parser.parse ~vars:[ "x"; "x" ] "x <= 1" with
        | f -> Alcotest.failf "expected Parse_error, got %a" Formula.pp f
        | exception Parser.Parse_error m ->
            Alcotest.(check string) "message" "duplicate variable x" m);
    t "lexer errors carry position" (fun () ->
        try
          ignore (formula_of_string "x <= #")
          (* '#' unsupported *)
        with Lexer.Lex_error (_, pos) -> Alcotest.(check int) "position" 5 pos);
  ]

(* The lowered membership test against [Relation.mem_float], on random
   DNF relations over small, big and beyond-float-range rationals, at
   points in a box and points put on an atom's facet (where the last
   bit of the accumulation decides the answer). *)
let lowered_gen =
  let open QCheck.Gen in
  let big = Q.of_string "123456789012345678901234567" in
  let huge = Q.of_string ("1" ^ String.make 400 '0') in
  let coeff =
    let* num = int_range (-9) 9 and* den = int_range 1 9 in
    let small = qi num den in
    frequency
      [
        (2, return Q.zero);
        (5, return small);
        (2, return (Q.mul small (Q.div big (Q.of_int 7))));
        (1, return (Q.mul small huge));
      ]
  in
  let* dim = int_range 1 3 in
  let atom =
    let* coeffs = list_repeat dim coeff and* constant = coeff in
    let* op = oneofl [ Atom.Le; Atom.Lt; Atom.Eq ] in
    return (Term.make (List.mapi (fun i c -> (i, c)) coeffs) constant, op)
  in
  let* tuples = list_size (int_range 1 3) (list_size (int_range 1 4) atom) in
  let* slack = oneofl [ 0.0; 1e-9 ] in
  let* box_points = list_size (int_range 1 6) (array_repeat dim (float_range (-2.0) 2.0)) in
  (* On the facet of an atom: solve its float row for its first
     variable, the other coordinates random. *)
  let* facet_points =
    list_size (int_range 1 6)
      (let* tuple = oneofl tuples in
       let* term, _ = oneofl tuple in
       let* x = array_repeat dim (float_range (-2.0) 2.0) in
       match Term.float_row term with
       | (j, w) :: rest, c when w <> 0.0 ->
           let s = List.fold_left (fun acc (i, wi) -> acc +. (wi *. x.(i))) c rest in
           x.(j) <- -.s /. w;
           return x
       | _ -> return x)
  in
  return (dim, tuples, slack, box_points @ facet_points)

let lowered_print (dim, tuples, slack, points) =
  Printf.sprintf "dim %d, slack %g, tuples [%s], points [%s]" dim slack
    (String.concat "; "
       (List.map
          (fun tuple ->
            String.concat " /\\ "
              (List.map (fun (term, op) -> Format.asprintf "%a" Atom.pp (Atom.make term op)) tuple))
          tuples))
    (String.concat "; "
       (List.map (fun x -> String.concat "," (List.map (Printf.sprintf "%h") (Array.to_list x))) points))

let lowered_tests =
  [
    qt ~count:500 "lowered membership agrees with mem_float bit for bit"
      (QCheck.make ~print:lowered_print lowered_gen)
      (fun (dim, tuples, slack, points) ->
        let r =
          Relation.make ~dim (List.map (List.map (fun (term, op) -> Atom.make term op)) tuples)
        in
        let lowered = Relation.lower ~slack r in
        List.for_all
          (fun x -> Relation.mem_lowered lowered x = Relation.mem_float ~slack r x)
          points);
    t "the 10^400 box's scaled rows, at and around its far facet" (fun () ->
        let r =
          Parser.parse_relation ~vars:[ "x"; "y" ]
            (Printf.sprintf "0 <= x and 1%s*x <= 1%s1 and 0 <= y and y <= 1"
               (String.make 400 '0') (String.make 399 '0'))
        in
        let lowered = Relation.lower r in
        List.iter
          (fun x0 ->
            let x = [| x0; 0.5 |] in
            Alcotest.(check bool) (Printf.sprintf "x = %h" x0) (Relation.mem_float r x)
              (Relation.mem_lowered lowered x))
          [ 0.0; 0.5; 1.0; Float.succ 1.0; 1.5; -0.0; Float.pred 0.0 ];
        Alcotest.(check bool) "x = 1 is a member" true (Relation.mem_lowered lowered [| 1.0; 0.5 |]));
  ]

let suites =
  [
    ("constr.term", term_tests);
    ("constr.atom", atom_tests);
    ("constr.formula", formula_tests);
    ("constr.dnf", dnf_tests);
    ("constr.relation", relation_tests);
    ("constr.lowered", lowered_tests);
    ("constr.parser", parser_tests);
  ]
