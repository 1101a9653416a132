(* Tests for the GIS application layer: schemas, instances, query
   language, evaluation strategies and aggregates. *)

open Scdb_gis
module VE = Scdb_polytope.Volume_exact
module Rng = Scdb_rng.Rng
module Q = Rational
module Tel = Scdb_telemetry.Telemetry

let t name f = Alcotest.test_case name `Quick f
let ts name f = Alcotest.test_case name `Slow f
let qt ?(count = 200) name arb prop = QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

let q = Q.of_int
let cfg = Scdb_core.Convex_obs.practical_config

let schema_tests =
  [
    t "add and lookup" (fun () ->
        let s = Schema.of_list [ ("R", 2); ("S", 3) ] in
        Alcotest.(check (option int)) "R" (Some 2) (Schema.arity s "R");
        Alcotest.(check (option int)) "missing" None (Schema.arity s "T");
        Alcotest.(check (list string)) "names" [ "R"; "S" ] (Schema.names s));
    t "duplicates and bad arity rejected" (fun () ->
        List.iter
          (fun f -> try ignore (f ()); Alcotest.fail "expected Invalid_argument" with Invalid_argument _ -> ())
          [
            (fun () -> Schema.of_list [ ("R", 2); ("R", 2) ]);
            (fun () -> Schema.of_list [ ("R", 0) ]);
          ]);
  ]

let instance_tests =
  [
    t "set and get" (fun () ->
        let s = Schema.of_list [ ("R", 2) ] in
        let i = Instance.set (Instance.create s) "R" (Relation.unit_cube 2) in
        Alcotest.(check bool) "present" true (Option.is_some (Instance.get i "R"));
        Alcotest.(check (list string)) "names" [ "R" ] (Instance.names i));
    t "arity mismatch rejected" (fun () ->
        let s = Schema.of_list [ ("R", 2) ] in
        try
          ignore (Instance.set (Instance.create s) "R" (Relation.unit_cube 3));
          Alcotest.fail "expected Invalid_argument"
        with Invalid_argument _ -> ());
    t "unknown name rejected" (fun () ->
        let s = Schema.of_list [ ("R", 2) ] in
        try
          ignore (Instance.set (Instance.create s) "S" (Relation.unit_cube 2));
          Alcotest.fail "expected Invalid_argument"
        with Invalid_argument _ -> ());
  ]

let schema2 = Schema.of_list [ ("R", 2); ("S", 2); ("T", 1) ]

let inst2 =
  let i = Instance.create schema2 in
  let i = Instance.set i "R" (Relation.box [| q 0; q 0 |] [| q 2; q 1 |]) in
  let i = Instance.set i "S" (Relation.box [| q 1; q 0 |] [| q 3; q 1 |]) in
  Instance.set i "T" (Relation.box [| q 0 |] [| q 1 |])

(* Every query text of the tests, benchmarks and examples with its
   [Query.pp] text: the queries they run must not change under them. *)
let pinned_queries =
  let schema3 = Schema.of_list [ ("R", 3) ] and lu = Synth.land_use_schema in
  let xy = [ "x"; "y" ] in
  [
    (schema2, xy, "R(x, y) /\\ S(x, y)", "(R(x0, x1) /\\ S(x0, x1))");
    (schema2, xy, "R(x, y) /\\ x + y <= 1", "(R(x0, x1) /\\ x0 + x1 - 1 <= 0)");
    (schema2, xy, "R(x, y) /\\ ~S(x, y)", "(R(x0, x1) /\\ ~S(x0, x1))");
    (schema2, [ "x" ], "exists y. R(x, y)", "exists x1. R(x0, x1)");
    (schema2, [ "x" ], "R(x)", "error: R expects 2 arguments, got 1");
    (schema2, [ "x" ], "Zzz(x)", "error: unknown relation Zzz");
    (schema2, xy, "R(x, y)", "R(x0, x1)");
    (schema2, xy, "R(y, x)", "R(x1, x0)");
    (schema2, [ "x" ], "exists y. R(x, y) /\\ y <= 1/2", "exists x1. (R(x0, x1) /\\ x1 - 1/2 <= 0)");
    (schema2, xy, "R(x, y) \\/ S(x, y)", "(R(x0, x1) \\/ S(x0, x1))");
    (schema2, [ "x" ], "exists y. R(x, y) /\\ ~S(x, y)", "exists x1. (R(x0, x1) /\\ ~S(x0, x1))");
    (schema2, xy, "R(x, y) /\\ x + 2*y <= 2", "(R(x0, x1) /\\ x0 + 2*x1 - 2 <= 0)");
    (schema3, xy, "exists z. R(x, y, z)", "exists x2. R(x0, x1, x2)");
    ( lu,
      xy,
      "exists z. Terrain(x, y, z) /\\ z >= 1 /\\ x <= 3 /\\ y <= 6",
      "exists x2. (Terrain(x0, x1, x2) /\\ -x2 + 1 <= 0 /\\ x0 - 3 <= 0 /\\ x1 - 6 <= 0)" );
    (lu, xy, "Parcels(x, y) /\\ ~Lakes(x, y)", "(Parcels(x0, x1) /\\ ~Lakes(x0, x1))");
    (lu, xy, "Parcels(x, y) \\/ Roads(x, y)", "(Parcels(x0, x1) \\/ Roads(x0, x1))");
    (lu, xy, "exists z. Terrain(x, y, z) /\\ z >= 1", "exists x2. (Terrain(x0, x1, x2) /\\ -x2 + 1 <= 0)");
    (lu, xy, "Parcels(x, y) /\\ Lakes(x, y)", "(Parcels(x0, x1) /\\ Lakes(x0, x1))");
    (lu, xy, "Parcels(x, y)", "Parcels(x0, x1)");
    (lu, xy, "Lakes(x, y)", "Lakes(x0, x1)");
    (lu, [ "x"; "y"; "z" ], "Terrain(x, y, z) /\\ Lakes(x, y)", "(Terrain(x0, x1, x2) /\\ Lakes(x0, x1))");
  ]

(* Quantifier- and relation-free FO+LIN text over x and y: nested
   connectives, parentheses around formulas and expressions, chains and
   <>. *)
let arbitrary_lin_text =
  let open QCheck.Gen in
  let small = int_range 1 4 in
  let operand =
    oneof
      [
        oneofl [ "x"; "y" ];
        map string_of_int (int_range 0 3);
        map2 (Printf.sprintf "%d*%s") small (oneofl [ "x"; "y" ]);
        map2 (Printf.sprintf "%s/%d") (oneofl [ "x"; "y" ]) small;
      ]
  in
  let expr =
    fix (fun self depth ->
        if depth = 0 then operand
        else
          frequency
            [
              (3, operand);
              (2, map3 (Printf.sprintf "%s %s %s") (self (depth - 1)) (oneofl [ "+"; "-" ]) operand);
              (1, map (Printf.sprintf "(%s)") (self (depth - 1)));
              (1, map (Printf.sprintf "-%s") operand);
            ])
  in
  let relop = oneofl [ "<="; "<"; ">="; ">"; "="; "<>" ] in
  let atom =
    frequency
      [
        (3, map3 (Printf.sprintf "%s %s %s") (expr 2) relop (expr 2));
        ( 1,
          map3
            (fun a (o1, b) (o2, c) -> Printf.sprintf "%s %s %s %s %s" a o1 b o2 c)
            (expr 1) (pair relop (expr 1)) (pair relop (expr 1)) );
      ]
  in
  let formula =
    fix (fun self depth ->
        if depth = 0 then atom
        else
          frequency
            [
              (2, atom);
              (2, map2 (Printf.sprintf "%s /\\ %s") (self (depth - 1)) (self (depth - 1)));
              (2, map2 (Printf.sprintf "%s \\/ %s") (self (depth - 1)) (self (depth - 1)));
              (1, map (Printf.sprintf "~%s") (self (depth - 1)));
              (1, map (Printf.sprintf "(%s)") (self (depth - 1)));
            ])
  in
  QCheck.make ~print:Fun.id (formula 3)

(* Rational points on and off the lines the generated atoms draw. *)
let lin_points =
  let vals = [ Q.of_int (-2); Q.of_ints (-1) 2; Q.zero; Q.of_ints 1 3; Q.one; Q.of_ints 3 2; Q.of_int 2 ] in
  List.concat_map (fun a -> List.map (fun b -> [| a; b |]) vals) vals

let query_tests =
  [
    t "parse relation atoms" (fun () ->
        let query = Query.parse ~schema:schema2 ~vars:[ "x"; "y" ] "R(x, y) /\\ S(x, y)" in
        Alcotest.(check (list string)) "names" [ "R"; "S" ] (Query.relation_names query);
        Alcotest.(check (list int)) "free" [ 0; 1 ] (Query.free_vars query));
    t "parse mixes constraints and atoms" (fun () ->
        let query = Query.parse ~schema:schema2 ~vars:[ "x"; "y" ] "R(x, y) /\\ x + y <= 1" in
        Alcotest.(check bool) "pe" true (Query.is_positive_existential query));
    t "negation detected" (fun () ->
        let query = Query.parse ~schema:schema2 ~vars:[ "x"; "y" ] "R(x, y) /\\ ~S(x, y)" in
        Alcotest.(check bool) "not pe" false (Query.is_positive_existential query));
    t "quantifier introduces fresh variable" (fun () ->
        let query = Query.parse ~schema:schema2 ~vars:[ "x" ] "exists y. R(x, y)" in
        Alcotest.(check (list int)) "free" [ 0 ] (Query.free_vars query);
        Alcotest.(check int) "max var" 1 (Query.max_var query));
    t "arity errors at parse time" (fun () ->
        try
          ignore (Query.parse ~schema:schema2 ~vars:[ "x" ] "R(x)");
          Alcotest.fail "expected Parse_error"
        with Parser.Parse_error _ -> ());
    t "unknown relation at parse time" (fun () ->
        try
          ignore (Query.parse ~schema:schema2 ~vars:[ "x" ] "Zzz(x)");
          Alcotest.fail "expected Parse_error"
        with Parser.Parse_error _ -> ());
    t "well_formed double-checks programmatic queries" (fun () ->
        let bad = Query.rel "R" [ 0 ] in
        Alcotest.(check bool) "error" true (Result.is_error (Query.well_formed schema2 bad)));
    t "a variable named twice is refused, naming it" (fun () ->
        match Query.parse ~schema:schema2 ~vars:[ "x"; "x" ] "R(x, x)" with
        | q -> Alcotest.failf "expected Parse_error, got %a" Query.pp q
        | exception Parser.Parse_error m ->
            Alcotest.(check string) "message" "duplicate variable x" m);
    t "every corpus query prints its pinned text" (fun () ->
        List.iter
          (fun (schema, vars, text, expected) ->
            let printed =
              match Query.parse ~schema ~vars text with
              | q -> Format.asprintf "%a" Query.pp q
              | exception Parser.Parse_error m -> "error: " ^ m
            in
            Alcotest.(check string) text expected printed)
          pinned_queries);
    t "the shared grammar: <>, ->, true and forall" (fun () ->
        let pp text = Format.asprintf "%a" Query.pp (Query.parse ~schema:schema2 ~vars:[ "x"; "y" ] text) in
        Alcotest.(check string) "<>" "(R(x0, x1) /\\ ~x0 - 1 = 0)" (pp "R(x, y) /\\ x <> 1");
        Alcotest.(check string) "->" "(~R(x0, x1) \\/ S(x0, x1))" (pp "R(x, y) -> S(x, y)");
        Alcotest.(check string) "true" "(true /\\ R(x0, x1))" (pp "true /\\ R(x, y)");
        Alcotest.(check string) "forall" "~exists x2. ~R(x0, x2)" (pp "forall z. R(x, z)"));
    t "true and false print as themselves and parse back" (fun () ->
        List.iter
          (fun text ->
            let q = Query.parse ~schema:schema2 ~vars:[] text in
            let printed = Format.asprintf "%a" Query.pp q in
            Alcotest.(check string) text text printed;
            Alcotest.(check bool) (text ^ " parses back") true (Query.parse ~schema:schema2 ~vars:[] printed = q))
          [ "true"; "false" ]);
    qt "quantifier- and relation-free text: Query.parse and Parser.parse agree" arbitrary_lin_text
      (fun text ->
        let vars = [ "x"; "y" ] in
        let f = Parser.parse ~vars text in
        let g = Eval.unfold inst2 (Query.parse ~schema:schema2 ~vars text) in
        List.for_all (fun p -> Formula.eval f p = Formula.eval g p) lin_points);
  ]

let eval_tests =
  [
    t "repeated argument R(x,x) restricts to the diagonal" (fun () ->
        (* R = [0,2]x[0,1]; R(x,x) holds iff 0 <= x <= 1 *)
        let query = Query.rel "R" [ 0; 0 ] in
        let f = Eval.unfold inst2 query in
        Alcotest.(check bool) "0.5 in" true (Formula.eval f [| Q.of_ints 1 2 |]);
        Alcotest.(check bool) "1.5 out" false (Formula.eval f [| Q.of_ints 3 2 |]));
    t "query pretty printer mentions relation names" (fun () ->
        let query = Query.parse ~schema:schema2 ~vars:[ "x"; "y" ] "R(x, y) /\\ ~S(x, y)" in
        let s = Format.asprintf "%a" Query.pp query in
        Alcotest.(check bool) "has R" true (String.length s > 0 && String.index_opt s 'R' <> None);
        Alcotest.(check bool) "has S" true (String.index_opt s 'S' <> None));
    t "unfold fails on unpopulated relation" (fun () ->
        let inst = Instance.create schema2 in
        try
          ignore (Eval.unfold inst (Query.rel "R" [ 0; 1 ]));
          Alcotest.fail "expected Invalid_argument"
        with Invalid_argument _ -> ());
    t "coverage rejects mismatched window" (fun () ->
        let rng = Rng.create 0 in
        let query = Query.parse ~schema:schema2 ~vars:[ "x"; "y" ] "R(x, y)" in
        let window = Relation.unit_cube 3 in
        Alcotest.(check bool) "error" true
          (Result.is_error
             (Aggregate.coverage rng inst2 ~free_dim:2 Aggregate.Exact ~window query)));
    t "unfold renames relation variables" (fun () ->
        let query = Query.parse ~schema:schema2 ~vars:[ "x"; "y" ] "R(y, x)" in
        let f = Eval.unfold inst2 query in
        (* R(y,x): y ranges over [0,2], x over [0,1] *)
        Alcotest.(check bool) "in" true (Formula.eval f [| q 1; q 2 |]);
        Alcotest.(check bool) "out" false (Formula.eval f [| q 2; q 1 |]));
    t "symbolic evaluation: intersection area" (fun () ->
        let query = Query.parse ~schema:schema2 ~vars:[ "x"; "y" ] "R(x, y) /\\ S(x, y)" in
        let r = Eval.symbolic inst2 ~free_dim:2 query in
        Alcotest.(check string) "area 1" "1" (Q.to_string (VE.volume_relation r)));
    t "symbolic evaluation: projection" (fun () ->
        let query = Query.parse ~schema:schema2 ~vars:[ "x" ] "exists y. R(x, y) /\\ y <= 1/2" in
        let r = Eval.symbolic inst2 ~free_dim:1 query in
        Alcotest.(check string) "length 2" "2" (Q.to_string (VE.volume_relation r)));
    ts "approximate volume matches symbolic (union query)" (fun () ->
        let rng = Rng.create 40 in
        let query = Query.parse ~schema:schema2 ~vars:[ "x"; "y" ] "R(x, y) \\/ S(x, y)" in
        let exact = Q.to_float (VE.volume_relation (Eval.symbolic inst2 ~free_dim:2 query)) in
        match Eval.compile ~config:cfg rng inst2 ~free_dim:2 query with
        | Error e -> Alcotest.fail e
        | Ok o ->
            let approx = Scdb_core.Observable.volume o rng ~eps:0.2 ~delta:0.2 in
            Alcotest.(check bool)
              (Printf.sprintf "exact=%.2f approx=%.2f" exact approx)
              true
              (Float.abs (approx -. exact) /. exact < 0.2));
    ts "approximate volume matches symbolic (existential query)" (fun () ->
        let rng = Rng.create 41 in
        let query = Query.parse ~schema:schema2 ~vars:[ "x" ] "exists y. R(x, y)" in
        let exact = Q.to_float (VE.volume_relation (Eval.symbolic inst2 ~free_dim:1 query)) in
        match Eval.compile ~config:cfg rng inst2 ~free_dim:1 query with
        | Error e -> Alcotest.fail e
        | Ok o ->
            let approx = Scdb_core.Observable.volume o rng ~eps:0.25 ~delta:0.25 in
            Alcotest.(check bool)
              (Printf.sprintf "exact=%.2f approx=%.2f" exact approx)
              true
              (Float.abs (approx -. exact) /. exact < 0.25));
    ts "guarded difference compiles" (fun () ->
        let rng = Rng.create 42 in
        let query = Query.parse ~schema:schema2 ~vars:[ "x"; "y" ] "R(x, y) /\\ ~S(x, y)" in
        match Eval.compile ~config:cfg rng inst2 ~free_dim:2 query with
        | Error e -> Alcotest.fail e
        | Ok o ->
            let v = Scdb_core.Observable.volume o rng ~eps:0.2 ~delta:0.2 in
            Alcotest.(check bool) "area 1" true (Float.abs (v -. 1.0) < 0.25));
    t "difference under quantifier rejected" (fun () ->
        let rng = Rng.create 0 in
        let query = Query.parse ~schema:schema2 ~vars:[ "x" ] "exists y. R(x, y) /\\ ~S(x, y)" in
        Alcotest.(check bool) "error" true
          (Result.is_error (Eval.compile ~config:cfg rng inst2 ~free_dim:1 query)));
    t "universal quantification rejected" (fun () ->
        let rng = Rng.create 0 in
        let query = Query.neg (Query.exists [ 1 ] (Query.neg (Query.rel "R" [ 0; 1 ]))) in
        Alcotest.(check bool) "error" true
          (Result.is_error (Eval.compile ~config:cfg rng inst2 ~free_dim:1 query)));
    t "a parsed forall is refused as a negated existential" (fun () ->
        let query = Query.parse ~schema:schema2 ~vars:[ "x" ] "forall z. R(x, z)" in
        Alcotest.(check (result reject string)) "compile"
          (Error "negated existential (universal quantification)")
          (Result.map ignore (Eval.compile ~config:cfg (Rng.create 0) inst2 ~free_dim:1 query)));
    t "R(x, y) /\\ x <> 1 compiles to the symbolic volume" (fun () ->
        let query = Query.parse ~schema:schema2 ~vars:[ "x"; "y" ] "R(x, y) /\\ x <> 1" in
        let exact = Q.to_float (VE.volume_relation (Eval.symbolic inst2 ~free_dim:2 query)) in
        let rng = Rng.create 44 and eps = 0.2 in
        match Eval.compile ~config:cfg rng inst2 ~free_dim:2 query with
        | Error e -> Alcotest.fail e
        | Ok o ->
            let v = Scdb_core.Observable.volume o rng ~eps ~delta:0.1 in
            Alcotest.(check bool)
              (Printf.sprintf "exact=%.4f approx=%.4f" exact v)
              true
              (Float.abs (v -. exact) <= eps *. exact));
    ts "reconstruction of a positive existential query" (fun () ->
        let rng = Rng.create 43 in
        let query = Query.parse ~schema:schema2 ~vars:[ "x"; "y" ] "R(x, y) \\/ S(x, y)" in
        match Eval.reconstruct ~config:cfg ~samples_per_piece:100 rng inst2 ~free_dim:2 query with
        | Error e -> Alcotest.fail e
        | Ok rec_set ->
            let reference x =
              Relation.mem_float (Eval.symbolic inst2 ~free_dim:2 query) x
            in
            let sd =
              Scdb_core.Reconstruct.symmetric_difference_mc rng ~samples:5000 rec_set reference
                ~lo:[| 0.; 0. |] ~hi:[| 3.; 1. |]
            in
            Alcotest.(check bool) (Printf.sprintf "sd=%.3f" sd) true (sd < 0.45));
    t "reconstruction rejects negation" (fun () ->
        let rng = Rng.create 0 in
        let query = Query.parse ~schema:schema2 ~vars:[ "x"; "y" ] "R(x, y) /\\ ~S(x, y)" in
        Alcotest.(check bool) "error" true
          (Result.is_error (Eval.reconstruct rng inst2 ~free_dim:2 query)));
    t "one-piece 2-D query: the exact weight answers the volume" (fun () ->
        (* The plan pipeline prices the leaf's Lasserre volume below its
           multi-phase walk, so the answer is the exact area and no
           volume phase runs. *)
        let query = Query.parse ~schema:schema2 ~vars:[ "x"; "y" ] "R(x, y) /\\ x + 2*y <= 2" in
        let exact = Q.to_float (VE.volume_relation (Eval.symbolic inst2 ~free_dim:2 query)) in
        let was = Tel.enabled () in
        Tel.set_enabled true;
        Tel.reset ();
        Fun.protect ~finally:(fun () -> Tel.set_enabled was) (fun () ->
            let rng = Rng.create 51 in
            match Eval.compile rng inst2 ~free_dim:2 query with
            | Error e -> Alcotest.fail e
            | Ok o ->
                let v = Scdb_core.Observable.volume o rng ~eps:0.2 ~delta:0.1 in
                Alcotest.(check (float 1e-9)) "area" exact v;
                Alcotest.(check int) "volume.phases" 0
                  (Option.value (Tel.counter_value "volume.phases") ~default:0)));
    t "an unbounded tuple under exists is refused, not dropped" (fun () ->
        (* R = unit cube ∪ {x ≥ 2, 0 ≤ y, z ≤ 1}: the second tuple has
           infinite measure, so neither its shadow nor the union of
           both shadows has a uniform generator or a finite volume. *)
        let schema = Schema.of_list [ ("R", 3) ] in
        let slab =
          match
            Flight.parse_relation ~vars:[ "x"; "y"; "z" ]
              "x >= 2 /\\ 0 <= y /\\ y <= 1 /\\ 0 <= z /\\ z <= 1"
          with
          | Ok r -> r
          | Error m -> Alcotest.fail m
        in
        let inst = Instance.set (Instance.create schema) "R" (Relation.union (Relation.unit_cube 3) slab) in
        let query = Query.parse ~schema ~vars:[ "x"; "y" ] "exists z. R(x, y, z)" in
        let unbounded = Error Flight.unbounded_relation in
        Alcotest.(check (result reject string)) "compile" unbounded
          (Result.map ignore (Eval.compile (Rng.create 53) inst ~free_dim:2 query));
        Alcotest.(check (result reject string)) "reconstruct" unbounded
          (Result.map ignore (Eval.reconstruct (Rng.create 53) inst ~free_dim:2 query)));
    t "terrain projection: the source's exact weight answers its volume" (fun () ->
        (* Each prism's source is a plan-pipeline leaf: its volume is a
           Lasserre call, so no multi-phase estimate runs, and the
           projection's volume is the source's exact volume times the
           fiber-compensated mean.  The counts are deterministic. *)
        let inst = Synth.land_use_instance (Rng.create 50) ~extent:9.0 in
        let query =
          Query.parse ~schema:Synth.land_use_schema ~vars:[ "x"; "y" ]
            "exists z. Terrain(x, y, z) /\\ z >= 1 /\\ x <= 3 /\\ y <= 6"
        in
        let exact = VE.float_volume_relation (Eval.symbolic inst ~free_dim:2 query) in
        let counter name = Option.value (Tel.counter_value name) ~default:0 in
        let eps = 0.1 in
        let was = Tel.enabled () in
        Tel.set_enabled true;
        Tel.reset ();
        let volume ?config () =
          let rng = Rng.create 54 in
          match Eval.compile ?config rng inst ~free_dim:2 query with
          | Error e -> Alcotest.fail e
          | Ok o -> Scdb_core.Observable.volume o rng ~eps ~delta:0.1
        in
        Fun.protect ~finally:(fun () -> Tel.set_enabled was) (fun () ->
            let v = volume ~config:cfg () in
            Alcotest.(check bool)
              (Printf.sprintf "exact=%.4f approx=%.4f" exact v)
              true
              (Float.abs (v -. exact) <= eps *. exact);
            Alcotest.(check int) "volume.estimates" 0 (counter "volume.estimates");
            Alcotest.(check bool) "vm.lasserre_calls" true (counter "vm.lasserre_calls" > 0);
            (* Without a config Eval runs Plan_exec's default, the
               practical config: no grid-walk step. *)
            Tel.reset ();
            ignore (volume ());
            Alcotest.(check int) "walk.steps without a config" 0 (counter "walk.steps")));
    ts "Parcels /\\ ~Lakes: box and lattice draws stay uniform on γ-cells" (fun () ->
        (* The two triangles' leaves draw from their face lattices, the
           two boxes' from their bounding boxes, and Diff rejects the
           lake.  Every point is dry, and Pearson's statistic over
           γ-cells (exact expected masses; cells under 5 expected points
           pooled) stays below the 99.9% χ² quantile. *)
        let rel text =
          match Flight.parse_relation ~vars:[ "x"; "y" ] text with
          | Ok r -> r
          | Error m -> Alcotest.fail m
        in
        let parcels =
          rel
            "x <= 3*y /\\ y <= 3*x /\\ x + y <= 4 \\/ y >= 0 /\\ x + 4*y <= 6 /\\ y <= 2*x - 7 \\/ \
             0 <= x /\\ x <= 3 /\\ 3.5 <= y /\\ y <= 6 \\/ 3.5 <= x /\\ x <= 6 /\\ 3.5 <= y /\\ y <= 6"
        and lakes = rel "2 <= x /\\ x <= 4.5 /\\ 1 <= y /\\ y <= 5" in
        let inst =
          Instance.set (Instance.set (Instance.create Synth.land_use_schema) "Parcels" parcels) "Lakes" lakes
        in
        let extent = 6.0 in
        let seed = 52 and n = 3000 and gamma = 1.0 in
        let routes =
          match
            Plan_exec.prepare ~config:cfg ~gamma:Flight.gamma ~eps:Flight.default_eps
              ~delta:Flight.default_delta ~task:Scdb_plan.Plan.Volume (Rng.create seed) parcels
          with
          | None -> Alcotest.fail "no parcel survived"
          | Some p ->
              let tags = ref [] in
              Scdb_plan.Plan.iter_nodes
                (fun node -> tags := node.Scdb_plan.Plan.tags @ !tags)
                (Plan_exec.optimize p).Plan_exec.plan;
              !tags
        in
        List.iter
          (fun route -> Alcotest.(check bool) route true (List.mem route routes))
          Scdb_plan.Plan.[ exact_sampler; rejection_box_substituted ];
        let query =
          Query.parse ~schema:Synth.land_use_schema ~vars:[ "x"; "y" ] "Parcels(x, y) /\\ ~Lakes(x, y)"
        in
        let rng = Rng.create seed in
        let points =
          match Eval.compile ~config:cfg rng inst ~free_dim:2 query with
          | Error e -> Alcotest.fail e
          | Ok o ->
              Scdb_core.Observable.sample_many o rng
                (Scdb_core.Params.make ~gamma:0.05 ~eps:0.2 ~delta:0.1 ())
                ~n
        in
        List.iter
          (fun x ->
            Alcotest.(check bool) "dry" true
              (Relation.mem_float parcels x && not (Relation.mem_float lakes x)))
          points;
        let k = int_of_float (extent /. gamma) in
        let area r = Q.to_float (VE.volume_relation r) in
        let cell i j =
          let g = Q.of_float gamma in
          Relation.box
            [| Q.mul (q i) g; Q.mul (q j) g |]
            [| Q.mul (q (i + 1)) g; Q.mul (q (j + 1)) g |]
        in
        let dry c = area (Relation.inter parcels c) -. area (Relation.inter (Relation.inter parcels lakes) c) in
        let masses = Array.init (k * k) (fun c -> dry (cell (c / k) (c mod k))) in
        let total = Array.fold_left ( +. ) 0.0 masses in
        let observed = Array.make (k * k) 0 in
        List.iter
          (fun x ->
            let idx v = Stdlib.min (k - 1) (Stdlib.max 0 (int_of_float (v /. gamma))) in
            let c = (idx x.(0) * k) + idx x.(1) in
            observed.(c) <- observed.(c) + 1)
          points;
        let pooled_o = ref 0 and pooled_e = ref 0.0 and stat = ref 0.0 and df = ref (-1) in
        let add o e =
          let d = float_of_int o -. e in
          stat := !stat +. (d *. d /. e);
          incr df
        in
        Array.iteri
          (fun c m ->
            let e = float_of_int n *. m /. total in
            if e >= 5.0 then add observed.(c) e
            else begin
              pooled_o := !pooled_o + observed.(c);
              pooled_e := !pooled_e +. e
            end)
          masses;
        if !pooled_e > 0.0 then add !pooled_o !pooled_e;
        (* Wilson–Hilferty 99.9% quantile of χ²(df). *)
        let df = float_of_int !df in
        let h = 2.0 /. (9.0 *. df) in
        let bound = df *. ((1.0 -. h +. (3.0902 *. sqrt h)) ** 3.0) in
        Alcotest.(check bool)
          (Printf.sprintf "chi2 = %.2f < %.2f (df %.0f)" !stat bound df)
          true (!stat < bound));
  ]

let aggregate_tests =
  [
    t "exact area of query" (fun () ->
        let rng = Rng.create 44 in
        let query = Query.parse ~schema:schema2 ~vars:[ "x"; "y" ] "R(x, y) /\\ S(x, y)" in
        match Aggregate.volume rng inst2 ~free_dim:2 Aggregate.Exact query with
        | Ok v -> Alcotest.(check (float 1e-9)) "area" 1.0 v
        | Error e -> Alcotest.fail e);
    t "grid area of query" (fun () ->
        let rng = Rng.create 45 in
        let query = Query.parse ~schema:schema2 ~vars:[ "x"; "y" ] "R(x, y) \\/ S(x, y)" in
        match Aggregate.volume rng inst2 ~free_dim:2 (Aggregate.Grid 0.05) query with
        | Ok v -> Alcotest.(check bool) "area 3" true (Float.abs (v -. 3.0) < 0.15)
        | Error e -> Alcotest.fail e);
    ts "sampling area of query" (fun () ->
        let rng = Rng.create 46 in
        let query = Query.parse ~schema:schema2 ~vars:[ "x"; "y" ] "R(x, y)" in
        match
          Aggregate.volume ~config:cfg rng inst2 ~free_dim:2
            (Aggregate.Sampling { eps = 0.2; delta = 0.2 }) query
        with
        | Ok v -> Alcotest.(check bool) "area 2" true (Float.abs (v -. 2.0) < 0.4)
        | Error e -> Alcotest.fail e);
    t "coverage fraction" (fun () ->
        let rng = Rng.create 47 in
        let query = Query.parse ~schema:schema2 ~vars:[ "x"; "y" ] "R(x, y)" in
        let window = Relation.box [| q 0; q 0 |] [| q 4; q 1 |] in
        match Aggregate.coverage rng inst2 ~free_dim:2 Aggregate.Exact ~window query with
        | Ok f -> Alcotest.(check (float 1e-9)) "half" 0.5 f
        | Error e -> Alcotest.fail e);
    ts "average aggregate" (fun () ->
        let rng = Rng.create 48 in
        let query = Query.parse ~schema:schema2 ~vars:[ "x"; "y" ] "R(x, y)" in
        match
          Aggregate.average ~config:cfg rng inst2 ~free_dim:2 ~samples:400 query ~f:(fun p -> p.(0))
        with
        | Ok m -> Alcotest.(check bool) "mean x = 1" true (Float.abs (m -. 1.0) < 0.15)
        | Error e -> Alcotest.fail e);
  ]

let synth_tests =
  [
    t "parcels are inside their cells and disjoint" (fun () ->
        let rng = Rng.create 49 in
        let parcels = Synth.parcel_grid rng ~rows:2 ~cols:2 ~cell:1.0 ~jitter:0.05 in
        Alcotest.(check int) "count" 4 (List.length parcels);
        (* disjointness: exact volume of union = sum of volumes *)
        let union = List.fold_left Relation.union (List.hd parcels) (List.tl parcels) in
        let sum =
          List.fold_left (fun acc p -> Q.add acc (VE.volume_relation p)) Q.zero parcels
        in
        Alcotest.(check string) "disjoint" (Q.to_string sum)
          (Q.to_string (VE.volume_relation union)));
    t "road has expected area" (fun () ->
        let r = Synth.road ~from:(0.0, 0.0) ~to_:(3.0, 4.0) ~width:0.5 in
        (* length 5, width 0.5 -> area 2.5 *)
        let v = Q.to_float (VE.volume_relation r) in
        Alcotest.(check (float 1e-6)) "area" 2.5 v);
    t "elevation prism volume = base area * height" (fun () ->
        let base = Relation.box [| q 0; q 0 |] [| q 2; q 1 |] in
        let prism = Synth.elevation_prism ~base ~height:(Q.of_ints 3 2) in
        Alcotest.(check string) "volume 3" "3" (Q.to_string (VE.volume_relation prism)));
    t "land use instance is fully populated" (fun () ->
        let rng = Rng.create 50 in
        let inst = Synth.land_use_instance rng ~extent:9.0 in
        List.iter
          (fun name ->
            Alcotest.(check bool) name true (Option.is_some (Instance.get inst name)))
          [ "Parcels"; "Lakes"; "Roads"; "Terrain" ]);
    t "9-parcel union: exact volume equals the per-tuple sum" (fun () ->
        (* 511 subsets, all but the 9 parcels and their 36 pairs pruned
           as supersets of an empty intersection; the 2,900-digit result
           must still convert to a finite float. *)
        let inst = Synth.land_use_instance (Rng.create 50) ~extent:9.0 in
        let parcels = Instance.get_exn inst "Parcels" in
        let union = Q.to_float (VE.volume_relation parcels) in
        let sum =
          List.fold_left
            (fun acc tuple -> acc +. Q.to_float (VE.volume_relation (Relation.make ~dim:2 [ tuple ])))
            0.0 (Relation.tuples parcels)
        in
        Alcotest.(check int) "tuples" 9 (List.length (Relation.tuples parcels));
        Alcotest.(check bool) "finite" true (Float.is_finite union);
        Alcotest.(check bool) "equals the sum" true (Float.abs (union -. sum) <= 1e-12 *. sum));
    t "seeded parcels are pinned: text of a parcel and of a 2x2 grid" (fun () ->
        (* The benchmark corpus and its exact truths are built from
           these generators (polar [Rng.unit_vector] cuts); any change
           to their draws or arithmetic moves the corpus and must be
           deliberate. *)
        let parcel =
          Synth.random_convex_parcel (Rng.create 7) ~centre:[| 1.0; 1.0 |] ~radius:1.0 ~facets:5
        in
        Alcotest.(check string)
          "parcel"
          "-x0 <= 0 /\\\n\
           -2090733117441245/2251799813685248*x0 + 1672647521203833/4503599627370496*x1 - \
           940408108398887/4503599627370496 <= 0 /\\\n\
           -7659563001429073/9007199254740992*x0 - 592409447744779/1125899906842624*x1 + \
           148110349456655/281474976710656 <= 0 /\\\n\
           5566402437930613/72057594037927936*x0 + 8980283979392219/9007199254740992*x1 - \
           8451710675617399/4503599627370496 <= 0 /\\\n\
           5408504689373251/9007199254740992*x0 - 1800654662887123/2251799813685248*x1 - \
           3444824656184129/4503599627370496 <= 0 /\\\n\
           4295327884335715/4503599627370496*x0 - 1353723742016717/4503599627370496*x1 - \
           3257865124572169/2251799813685248 <= 0 /\\\n\
           x0 - 2 <= 0 /\\ -x1 <= 0 /\\ x1 - 2 <= 0"
          (Relation.to_text parcel);
        let grid = Synth.parcel_grid (Rng.create 11) ~rows:2 ~cols:2 ~cell:1.0 ~jitter:0.05 in
        let text = String.concat "\n" (List.map Relation.to_text grid) in
        Alcotest.(check int) "grid text length" 3770 (String.length text);
        Alcotest.(check string) "grid text digest" "f7784b5c44414ad8becbd1e68714fcce"
          (Digest.to_hex (Digest.string text)));
  ]


let svg_tests =
  [
    t "render produces well-formed-ish svg" (fun () ->
        let r = Relation.box [| q 0; q 0 |] [| q 1; q 1 |] in
        let doc =
          Svg.render ~width:200 ~height:100 ~lo:[| -1.0; -1.0 |] ~hi:[| 2.0; 2.0 |]
            [
              Svg.relation r;
              Svg.points ~colour:"#ff0000" [ [| 0.5; 0.5 |] ];
              Svg.polygon [ [| 0.0; 0.0 |]; [| 1.0; 0.0 |]; [| 0.5; 1.0 |] ];
            ]
        in
        Alcotest.(check bool) "svg open" true (String.length doc > 0 && String.sub doc 0 4 = "<svg");
        let contains needle =
          let n = String.length needle and m = String.length doc in
          let rec go i = i + n <= m && (String.sub doc i n = needle || go (i + 1)) in
          go 0
        in
        Alcotest.(check bool) "polygon" true (contains "<polygon");
        Alcotest.(check bool) "circle" true (contains "<circle");
        Alcotest.(check bool) "closed" true (contains "</svg>"));
    t "y axis is flipped (north up)" (fun () ->
        let doc =
          Svg.render ~width:100 ~height:100 ~lo:[| 0.0; 0.0 |] ~hi:[| 1.0; 1.0 |]
            [ Svg.points [ [| 0.0; 1.0 |] ] ]
        in
        (* world (0,1) must land at pixel y=0 *)
        let contains needle =
          let n = String.length needle and m = String.length doc in
          let rec go i = i + n <= m && (String.sub doc i n = needle || go (i + 1)) in
          go 0
        in
        Alcotest.(check bool) "top" true (contains "cy=\"0.00\""));
    t "non-2d relation rejected" (fun () ->
        try
          ignore (Svg.relation (Relation.unit_cube 3));
          Alcotest.fail "expected Invalid_argument"
        with Invalid_argument _ -> ());
  ]


let suites =
  [
    ("gis.schema", schema_tests);
    ("gis.instance", instance_tests);
    ("gis.query", query_tests);
    ("gis.eval", eval_tests);
    ("gis.aggregate", aggregate_tests);
    ("gis.synth", synth_tests);
    ("gis.svg", svg_tests);
  ]
