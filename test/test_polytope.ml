(* Tests for H-polytopes, exact volumes, 2-D geometry and grid volumes. *)

module P = Scdb_polytope.Polytope
module VE = Scdb_polytope.Volume_exact
module P2 = Scdb_polytope.Polygon2d
module GV = Scdb_polytope.Gridvol
module Rng = Scdb_rng.Rng
module Q = Rational

let t name f = Alcotest.test_case name `Quick f

let qt ?(count = 50) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

let q = Q.of_int
let feq = Alcotest.(check (float 1e-7))

let polytope_tests =
  [
    t "membership and violation" (fun () ->
        let c = P.unit_cube 3 in
        Alcotest.(check bool) "centre" true (P.mem c [| 0.5; 0.5; 0.5 |]);
        Alcotest.(check bool) "outside" false (P.mem c [| 1.1; 0.5; 0.5 |]);
        feq "violation inside" (-0.5) (P.violation c [| 0.5; 0.5; 0.5 |]);
        feq "violation outside" 0.1 (P.violation c [| 1.1; 0.5; 0.5 |]));
    t "chebyshev of cube" (fun () ->
        match P.chebyshev (P.cube 3 2.0) with
        | Some (centre, r) ->
            feq "radius" 2.0 r;
            Alcotest.(check bool) "centre" true (Vec.equal_eps 1e-7 [| 0.; 0.; 0. |] centre)
        | None -> Alcotest.fail "expected centre");
    t "bounding box" (fun () ->
        match P.bounding_box (P.simplex 2) with
        | Some (lo, hi) ->
            Alcotest.(check bool) "lo" true (Vec.equal_eps 1e-7 [| 0.; 0. |] lo);
            Alcotest.(check bool) "hi" true (Vec.equal_eps 1e-7 [| 1.; 1. |] hi)
        | None -> Alcotest.fail "expected box");
    t "boundedness and emptiness" (fun () ->
        let halfspace = P.make ~dim:2 [| [| 1.; 0. |] |] [| 0. |] in
        Alcotest.(check bool) "unbounded" false (P.is_bounded halfspace);
        Alcotest.(check bool) "nonempty" false (P.is_empty halfspace);
        let empty = P.make ~dim:1 [| [| 1. |]; [| -1. |] |] [| -1.; -1. |] in
        Alcotest.(check bool) "empty" true (P.is_empty empty));
    t "transform maps set correctly" (fun () ->
        let c = P.unit_cube 2 in
        let f = Option.get (Affine.make [| [| 2.; 0. |]; [| 0.; 1. |] |] [| 1.; 0. |]) in
        let tc = P.transform f c in
        (* image of [0,1]^2 is [1,3]x[0,1] *)
        Alcotest.(check bool) "in" true (P.mem tc [| 2.0; 0.5 |]);
        Alcotest.(check bool) "out" false (P.mem tc [| 0.5; 0.5 |]);
        Alcotest.(check bool) "boundary" true (P.mem ~slack:1e-9 tc [| 1.0; 0.0 |]));
    t "line intersection" (fun () ->
        let c = P.cube 2 1.0 in
        (match P.line_intersection c [| 0.; 0. |] [| 1.; 0. |] with
        | Some (lo, hi) ->
            feq "lo" (-1.0) lo;
            feq "hi" 1.0 hi
        | None -> Alcotest.fail "expected chord");
        match P.line_intersection c [| 5.; 0. |] [| 0.; 1. |] with
        | None -> ()
        | Some _ -> Alcotest.fail "expected miss");
    t "sandwich witnesses" (fun () ->
        match P.sandwich (P.cube 2 1.0) with
        | Some (_, r_inf, r_sup) ->
            feq "r_inf" 1.0 r_inf;
            Alcotest.(check bool) "r_sup" true (Float.abs (r_sup -. sqrt 2.0) < 1e-6)
        | None -> Alcotest.fail "expected sandwich");
    t "of_tuple equalities become two rows" (fun () ->
        let tuple = [ Atom.eq (Term.var 0) (Term.const Q.one) ] in
        let p = P.of_tuple ~dim:1 tuple in
        Alcotest.(check int) "rows" 2 (P.num_constraints p));
  ]

let exact_volume_tests =
  [
    t "cube volumes" (fun () ->
        for d = 1 to 5 do
          Alcotest.(check string) (Printf.sprintf "unit cube %dD" d) "1"
            (Q.to_string (VE.volume_relation (Relation.unit_cube d)))
        done);
    t "simplex 1/d!" (fun () ->
        for d = 1 to 5 do
          let fact = List.fold_left ( * ) 1 (List.init d (fun i -> i + 1)) in
          Alcotest.(check string) (Printf.sprintf "simplex %dD" d)
            (Q.to_string (Q.of_ints 1 fact))
            (Q.to_string (VE.volume_relation (Relation.standard_simplex d)))
        done);
    t "cross polytope (2r)^d/d!" (fun () ->
        for d = 1 to 4 do
          let fact = List.fold_left ( * ) 1 (List.init d (fun i -> i + 1)) in
          let expected = Q.div (Q.pow (q 6) d) (q fact) in
          Alcotest.(check string) (Printf.sprintf "cross %dD" d) (Q.to_string expected)
            (Q.to_string (VE.volume_relation (Relation.cross_polytope d (q 3))))
        done);
    t "inclusion-exclusion on overlapping boxes" (fun () ->
        let b1 = Relation.box [| q 0; q 0 |] [| q 2; q 1 |] in
        let b2 = Relation.box [| q 1; q 0 |] [| q 3; q 1 |] in
        Alcotest.(check string) "union" "3" (Q.to_string (VE.volume_relation (Relation.union b1 b2)));
        Alcotest.(check string) "inter" "1" (Q.to_string (VE.volume_relation (Relation.inter b1 b2)));
        Alcotest.(check string) "diff" "1" (Q.to_string (VE.volume_relation (Relation.diff b1 b2))));
    t "empty and degenerate are zero" (fun () ->
        let r = Parser.parse_relation ~vars:[ "x"; "y" ] "x <= 0 /\\ x >= 1 /\\ 0 <= y <= 1" in
        Alcotest.(check string) "empty" "0" (Q.to_string (VE.volume_relation r));
        let flat = Parser.parse_relation ~vars:[ "x"; "y" ] "x = 0 /\\ 0 <= y <= 1" in
        Alcotest.(check string) "flat" "0" (Q.to_string (VE.volume_relation flat)));
    t "unbounded raises" (fun () ->
        Alcotest.check_raises "unbounded" VE.Unbounded (fun () ->
            ignore (VE.volume_relation (Relation.halfspace ~dim:2 (Term.var 0)))));
    t "rotated diamond" (fun () ->
        let dia =
          Parser.parse_relation ~vars:[ "x"; "y" ]
            "x + y <= 1 /\\ x - y <= 1 /\\ -x + y <= 1 /\\ -x - y <= 1"
        in
        Alcotest.(check string) "area 2" "2" (Q.to_string (VE.volume_relation dia)));
    t "duplicate constraints do not double count" (fun () ->
        let r =
          Parser.parse_relation ~vars:[ "x" ] "0 <= x /\\ x <= 1 /\\ x <= 1 /\\ 2*x <= 2"
        in
        Alcotest.(check string) "still 1" "1" (Q.to_string (VE.volume_relation r)));
    t "too many tuples guarded" (fun () ->
        let slab i = Relation.box [| q i |] [| q (i + 1) |] in
        let r = List.fold_left (fun acc i -> Relation.union acc (slab i)) (slab 0) (List.init 20 Fun.id) in
        try
          ignore (VE.volume_relation r);
          Alcotest.fail "expected Invalid_argument"
        with Invalid_argument _ -> ());
    qt "scaling law vol(sK) = s^d vol(K)" (QCheck.make QCheck.Gen.(int_range 1 10_000)) (fun seed ->
        let rng = Rng.create seed in
        let d = 1 + Rng.int rng 3 in
        let s = 1 + Rng.int rng 4 in
        let base = Relation.standard_simplex d in
        (* scale by substituting x_i -> x_i / s in each atom *)
        let scaled =
          Relation.make ~dim:d
            (List.map
               (List.map (fun (a : Atom.t) ->
                    Atom.make
                      (List.fold_left
                         (fun te (i, c) -> Term.add te (Term.monomial (Q.div c (q s)) i))
                         (Term.const (Term.constant a.Atom.term))
                         (Term.coeffs a.Atom.term))
                      a.Atom.op))
               (Relation.tuples base))
        in
        let v0 = VE.volume_relation base and v1 = VE.volume_relation scaled in
        Q.equal v1 (Q.mul v0 (Q.pow (q s) d)));
  ]

let polygon_tests =
  [
    qt "affine transform scales area by |det|" (QCheck.make QCheck.Gen.(int_range 0 100_000)) (fun seed ->
        let rng = Rng.create seed in
        let mat = Array.init 2 (fun _ -> Array.init 2 (fun _ -> Rng.uniform rng (-2.0) 2.0)) in
        QCheck.assume (Float.abs (Mat.det mat) > 0.1);
        let offset = [| Rng.uniform rng (-3.0) 3.0; Rng.uniform rng (-3.0) 3.0 |] in
        match Affine.make mat offset with
        | None -> QCheck.assume_fail ()
        | Some f ->
            let p = P.unit_cube 2 in
            let area_before = P2.area p in
            let area_after = P2.area (P.transform f p) in
            Float.abs (area_after -. (Affine.volume_scale f *. area_before)) < 1e-6);
    t "triangle vertices and area" (fun () ->
        let tri = P.simplex 2 in
        Alcotest.(check int) "3 vertices" 3 (List.length (P2.vertices tri));
        feq "area" 0.5 (P2.area tri);
        feq "perimeter" (2.0 +. sqrt 2.0) (P2.perimeter tri));
    t "square centroid" (fun () ->
        match P2.centroid (P.unit_cube 2) with
        | Some c -> Alcotest.(check bool) "centre" true (Vec.equal_eps 1e-7 [| 0.5; 0.5 |] c)
        | None -> Alcotest.fail "expected centroid");
    t "degenerate polygon" (fun () ->
        let flat =
          P.make ~dim:2 [| [| 1.; 0. |]; [| -1.; 0. |]; [| 0.; 1. |]; [| 0.; -1. |] |] [| 0.; 0.; 1.; 0. |]
        in
        feq "area 0" 0.0 (P2.area flat));
    t "area agrees with exact volume" (fun () ->
        let rng = Rng.create 42 in
        for _ = 1 to 20 do
          (* random bounded 2D polytope: cube ∩ random halfplanes *)
          let atoms = ref (List.concat (Relation.tuples (Relation.cube 2 (q 2)))) in
          for _ = 1 to 4 do
            let te =
              Term.make
                [ (0, q (Rng.int rng 5 - 2)); (1, q (Rng.int rng 5 - 2)) ]
                (q (-1 - Rng.int rng 2))
            in
            atoms := Atom.make te Atom.Le :: !atoms
          done;
          let r = Relation.make ~dim:2 [ !atoms ] in
          let exact = Q.to_float (VE.volume_relation r) in
          let poly = P.of_tuple ~dim:2 (List.hd (Relation.tuples r)) in
          Alcotest.(check (float 1e-5)) "agree" exact (P2.area poly)
        done);
  ]

let gridvol_tests =
  [
    t "volume converges with gamma" (fun () ->
        let tri = Relation.standard_simplex 2 in
        let coarse = Option.get (GV.build ~gamma:0.2 tri) in
        let fine = Option.get (GV.build ~gamma:0.01 tri) in
        Alcotest.(check bool) "coarse rough" true (Float.abs (GV.volume coarse -. 0.5) < 0.15);
        Alcotest.(check bool) "fine close" true (Float.abs (GV.volume fine -. 0.5) < 0.02));
    t "cells_scanned is the (R/gamma)^d cost" (fun () ->
        let b = Relation.unit_cube 2 in
        let g = Option.get (GV.build ~gamma:0.1 b) in
        Alcotest.(check bool) "scanned >= 100" true (GV.cells_scanned g >= 100));
    t "sampling stays in relation and covers components" (fun () ->
        let rng = Rng.create 5 in
        let b = Relation.union (Relation.box [| q 0 |] [| q 1 |]) (Relation.box [| q 2 |] [| q 3 |]) in
        let g = Option.get (GV.build ~gamma:0.05 b) in
        let low = ref 0 in
        let n = 4000 in
        for _ = 1 to n do
          let x = GV.sample g rng in
          Alcotest.(check bool) "member-ish" true (x.(0) < 1.05 || x.(0) > 1.95);
          if x.(0) < 1.5 then incr low
        done;
        Alcotest.(check bool) "balanced across components" true (abs (!low - (n / 2)) < 200));
    t "empty relation" (fun () ->
        let r = Parser.parse_relation ~vars:[ "x" ] "x <= 0 /\\ x >= 1" in
        Alcotest.(check bool) "none" true (Option.is_none (GV.build ~gamma:0.1 r)));
    t "unbounded relation" (fun () ->
        Alcotest.(check bool) "none" true
          (Option.is_none (GV.build ~gamma:0.1 (Relation.halfspace ~dim:1 (Term.var 0)))));
    t "cell budget guard" (fun () ->
        let b = Relation.unit_cube 4 in
        try
          ignore (GV.build ~gamma:0.001 b);
          Alcotest.fail "expected Invalid_argument"
        with Invalid_argument _ -> ());
  ]

let kernel_tests =
  [
    t "empty constraint system is all of R^d" (fun () ->
        (* Regression: [violation] must short-circuit the m = 0 case
           before touching any row. *)
        let p = P.make ~dim:2 [||] [||] in
        Alcotest.(check (float 0.0)) "violation" 0.0 (P.violation p [| 3.0; -4.0 |]);
        Alcotest.(check bool) "mem" true (P.mem p [| 3.0; -4.0 |]);
        (match P.line_intersection p [| 0.0; 0.0 |] [| 1.0; 0.0 |] with
        | Some (lo, hi) ->
            Alcotest.(check bool) "unbounded chord" true (lo = neg_infinity && hi = infinity)
        | None -> Alcotest.fail "expected a chord");
        let cur = P.Kernel.make p [| 1.0; 1.0 |] in
        Alcotest.(check bool) "kernel inside" true (P.Kernel.inside cur);
        Alcotest.(check (float 0.0)) "kernel violation" 0.0 (P.Kernel.violation cur));
    t "kernel chord agrees with line_intersection" (fun () ->
        let rng = Rng.create 21 in
        let poly = ref (P.cube 5 1.0) in
        for _ = 1 to 12 do
          poly := P.add_halfspace !poly (Rng.unit_vector rng 5) 0.7
        done;
        let poly = !poly in
        let x = Array.make 5 0.1 in
        let cur = P.Kernel.make poly x in
        for _ = 1 to 50 do
          let dir = Rng.unit_vector rng 5 in
          match (P.line_intersection poly x dir, P.Kernel.chord cur dir) with
          | Some (lo, hi), true ->
              Alcotest.(check (float 1e-9)) "lo" lo (P.Kernel.lo cur);
              Alcotest.(check (float 1e-9)) "hi" hi (P.Kernel.hi cur)
          | None, false -> ()
          | Some _, false -> Alcotest.fail "kernel missed a chord"
          | None, true -> Alcotest.fail "kernel invented a chord"
        done);
    t "line_intersection and line_intersection_into agree bitwise" (fun () ->
        (* One chord implementation: the option-returning form is a
           wrapper, so every endpoint — signed zeros and infinities
           included — must carry the same bits, and an empty chord must
           be [None] exactly when the buffer form returns [false]. *)
        let bits = Int64.bits_of_float in
        let same name poly x dir =
          let range = [| nan; nan |] in
          let hit = P.line_intersection_into poly x dir range in
          match P.line_intersection poly x dir with
          | Some (lo, hi) ->
              Alcotest.(check bool) (name ^ ": non-empty") true hit;
              Alcotest.(check int64) (name ^ ": tmin bits") (bits lo) (bits range.(0));
              Alcotest.(check int64) (name ^ ": tmax bits") (bits hi) (bits range.(1))
          | None -> Alcotest.(check bool) (name ^ ": empty") false hit
        in
        let square = P.cube 2 1.0 in
        (* Parallel to the violated row x <= 1: empty, and no later row
           may reopen it. *)
        same "parallel violated" square [| 5.; 0. |] [| 0.; 1. |];
        Alcotest.(check bool) "parallel violated is empty" false
          (P.line_intersection_into square [| 5.; 0. |] [| 0.; 1. |] (Array.make 2 0.0));
        (* Unbounded along dir on one side, then on both. *)
        let half = P.make ~dim:2 [| [| 1.; 0. |] |] [| 1. |] in
        same "one-sided" half [| 0.; 0. |] [| 1.; 0. |];
        same "unbounded" half [| 0.; 0. |] [| 0.; 1. |];
        let range = Array.make 2 0.0 in
        Alcotest.(check bool) "unbounded is non-empty" true
          (P.line_intersection_into half [| 0.; 0. |] [| 0.; 1. |] range);
        Alcotest.(check bool) "unbounded endpoints" true
          (range.(0) = neg_infinity && range.(1) = infinity);
        (* Corner of the square along the anti-diagonal: tmin = tmax
           (as -0 and +0). *)
        same "tmin = tmax" square [| 1.; 1. |] [| 1.; -1. |];
        Alcotest.(check bool) "point chord" true
          (P.line_intersection_into square [| 1.; 1. |] [| 1.; -1. |] range
          && range.(0) = range.(1));
        let rng = Rng.create 23 in
        let poly = ref (P.cube 4 1.0) in
        for _ = 1 to 12 do
          poly := P.add_halfspace !poly (Rng.unit_vector rng 4) 0.6
        done;
        for k = 1 to 200 do
          let x = Array.init 4 (fun _ -> Rng.uniform rng (-1.5) 1.5) in
          same (Printf.sprintf "random %d" k) !poly x (Rng.unit_vector rng 4)
        done);
    t "cached products stay coherent across advances" (fun () ->
        let rng = Rng.create 22 in
        let poly = ref (P.cube 4 1.0) in
        for _ = 1 to 8 do
          poly := P.add_halfspace !poly (Rng.unit_vector rng 4) 0.9
        done;
        let poly = !poly in
        let cur = P.Kernel.make poly (Vec.create 4) in
        for _ = 1 to 200 do
          let dir = Rng.unit_vector rng 4 in
          if P.Kernel.chord cur dir then begin
            let lo = P.Kernel.lo cur and hi = P.Kernel.hi cur in
            if Float.is_finite lo && Float.is_finite hi && hi > lo then
              P.Kernel.advance cur dir (0.5 *. (lo +. hi))
          end
        done;
        let x = P.Kernel.pos cur in
        let ax = P.Kernel.products cur in
        Array.iteri
          (fun i row ->
            Alcotest.(check (float 1e-9)) (Printf.sprintf "row %d" i) (Vec.dot row x) ax.(i))
          poly.P.a;
        Alcotest.(check (float 1e-9)) "violation" (P.violation poly x) (P.Kernel.violation cur));
    t "try_set_coord accepts inside and rejects outside" (fun () ->
        let poly = P.cube 3 1.0 in
        let cur = P.Kernel.make poly (Vec.create 3) in
        Alcotest.(check bool) "inside move" true (P.Kernel.try_set_coord cur 0 0.5);
        Alcotest.(check bool) "outside move" false (P.Kernel.try_set_coord cur 0 1.5);
        let x = P.Kernel.pos cur in
        Alcotest.(check (float 0.0)) "kept accepted move" 0.5 x.(0);
        Alcotest.(check bool) "still inside" true (P.Kernel.inside cur);
        Alcotest.check_raises "coordinate out of range"
          (Invalid_argument "Polytope.Kernel.try_set_coord: coordinate out of range") (fun () ->
            ignore (P.Kernel.try_set_coord cur 3 0.0)));
  ]

let suites =
  [
    ("polytope.hrep", polytope_tests);
    ("polytope.kernel", kernel_tests);
    ("polytope.volume_exact", exact_volume_tests);
    ("polytope.polygon2d", polygon_tests);
    ("polytope.gridvol", gridvol_tests);
  ]
