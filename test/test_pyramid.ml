(* The exact leaf sampler (Scdb_sampling.Pyramid) on the pipeline's own
   rounded bodies: its lattice volume against the exact Lasserre volume,
   and the uniformity of its draws, mapped back through the rounding
   transform, against exact fractions.  Every interval is Clopper–Pearson
   at 99.9% ({!Scdb_diag.Diag.clopper_pearson}); every chi-square is
   checked against its 99.9% quantile, so a correct sampler fails a
   given seed with probability about 1e-3 and a fixed seed makes every
   run reproducible. *)

module Pyr = Scdb_sampling.Pyramid
module Diag = Scdb_diag.Diag
module Rng = Scdb_rng.Rng
module Polytope = Scdb_polytope.Polytope
module Volume_exact = Scdb_polytope.Volume_exact
open Scdb_core

let t name f = Alcotest.test_case name `Quick f
let ts name f = Alcotest.test_case name `Slow f

let relation vars text =
  Relation.of_formula ~dim:(List.length vars) (Scdb_constr.Parser.parse ~vars text)

let vars d = List.init d (fun i -> Printf.sprintf "x%d" (i + 1))

let simplex_text d =
  String.concat " /\\ "
    (List.map (fun v -> v ^ " >= 0") (vars d) @ [ String.concat " + " (vars d) ^ " <= 1" ])

let prepare ?(seed = 7) r =
  match Convex_obs.prepare_relation ~config:Convex_obs.practical_config (Rng.create seed) r with
  | Some p -> p
  | None -> Alcotest.fail "relation did not prepare"

let lattice (p : Convex_obs.prepared) =
  match Lazy.force p.Convex_obs.p_lattice with
  | Ok l -> l
  | Error e -> Alcotest.fail ("no lattice: " ^ Pyr.decline_reason e)

(* [n] draws in the relation's own coordinates. *)
let draws ?(seed = 11) p ~n =
  let l = lattice p and rng = Rng.create seed in
  List.init n (fun _ -> Affine.apply_inverse p.Convex_obs.p_transform (Pyr.sample l rng))

(* The lattice volume, undone from the rounded frame, against Lasserre. *)
let check_volume r =
  let p = prepare r in
  let exact =
    Rational.to_float
      (Volume_exact.volume_tuple ~dim:(Relation.dim r) (List.hd (Relation.tuples r)))
  in
  let v = Pyr.volume (lattice p) /. Affine.volume_scale p.Convex_obs.p_transform in
  Alcotest.(check bool)
    (Printf.sprintf "lattice volume %.15g vs exact %.15g" v exact)
    true
    (Float.abs (v -. exact) <= 1e-9 *. exact)

let check_fraction ~what ~truth points pred =
  let runs = List.length points in
  let hits = List.length (List.filter pred points) in
  let lo, hi = Diag.clopper_pearson ~confidence:0.999 ~hits ~runs () in
  Alcotest.(check bool)
    (Printf.sprintf "%s: %d/%d, 99.9%% interval [%.6g, %.6g] holds %.6g" what hits runs lo hi truth)
    true
    (lo <= truth && truth <= hi)

let rec factorial n = if n <= 1 then 1 else n * factorial (n - 1)

let sorted x =
  let ok = ref true in
  for i = 1 to Array.length x - 1 do
    if x.(i - 1) > x.(i) then ok := false
  done;
  !ok

(* The standard d-simplex: the d! orderings of the coordinates cut it
   into congruent pieces, so x₁ ≤ … ≤ x_d holds on 1/d! of it.  The
   draws run in the rounded frame, an affine image with no coordinate
   symmetry, so a sampler that weights facets wrongly there shows up
   here. *)
let simplex_order d () =
  let r = relation (vars d) (simplex_text d) in
  check_volume r;
  let points = draws (prepare r) ~n:200_000 in
  check_fraction
    ~what:(Printf.sprintf "%d-simplex ordered fraction" d)
    ~truth:(1.0 /. float_of_int (factorial d))
    points sorted

let chi_square ~observed ~expected =
  let s = ref 0.0 in
  Array.iteri
    (fun i o ->
      let d = float_of_int o -. expected.(i) in
      s := !s +. (d *. d /. expected.(i)))
    observed;
  !s

(* 99.9% quantiles of the chi-square distribution. *)
let chi2_999_df9 = 27.877
let chi2_999_df15 = 37.697

(* Fig. 1's triangle on a 4×4 grid: the diagonal x + y = 1 runs through
   cell corners, so six cells lie inside and four are halved: ten cells
   of expected mass 1/8 and 1/16. *)
let triangle_chi_square () =
  let r = relation [ "x"; "y" ] "x >= 0 /\\ y >= 0 /\\ x + y <= 1" in
  check_volume r;
  let n = 20_000 and k = 4 in
  let cell (x : Vec.t) =
    let c v = Stdlib.min (k - 1) (Stdlib.max 0 (int_of_float (v *. float_of_int k))) in
    (c x.(0), c x.(1))
  in
  let cells =
    List.filter (fun (i, j) -> i + j <= k - 1) (List.concat (List.init k (fun i -> List.init k (fun j -> (i, j)))))
  in
  let index = Hashtbl.create 16 in
  List.iteri (fun n c -> Hashtbl.replace index c n) cells;
  let observed = Array.make (List.length cells) 0 in
  List.iter
    (fun x ->
      match Hashtbl.find_opt index (cell x) with
      | Some i -> observed.(i) <- observed.(i) + 1
      | None -> Alcotest.fail "a draw left the triangle")
    (draws (prepare r) ~n);
  let expected =
    Array.of_list
      (List.map
         (fun (i, j) -> float_of_int n *. (if i + j = k - 1 then 1.0 /. 16.0 else 1.0 /. 8.0))
         cells)
  in
  let stat = chi_square ~observed ~expected in
  Alcotest.(check bool)
    (Printf.sprintf "triangle chi2 = %.2f < %.3f (df 9)" stat chi2_999_df9)
    true (stat < chi2_999_df9)

(* The 4-cube on its 16 orthant cells. *)
let cube_chi_square () =
  let r = relation (vars 4) "0 <= x1 <= 1 /\\ 0 <= x2 <= 1 /\\ 0 <= x3 <= 1 /\\ 0 <= x4 <= 1" in
  check_volume r;
  let n = 16_000 in
  let observed = Array.make 16 0 in
  List.iter
    (fun (x : Vec.t) ->
      let c = ref 0 in
      Array.iteri (fun i v -> if v >= 0.5 then c := !c lor (1 lsl i)) x;
      observed.(!c) <- observed.(!c) + 1)
    (draws (prepare r) ~n);
  let stat = chi_square ~observed ~expected:(Array.make 16 (float_of_int n /. 16.0)) in
  Alcotest.(check bool)
    (Printf.sprintf "4-cube chi2 = %.2f < %.3f (df 15)" stat chi2_999_df15)
    true (stat < chi2_999_df15)

(* The pyramid over the unit square with apex (1/2, 1/2, 1): four
   facets meet at the apex, so it is not simple.  Below z = 1/2 lies
   1 − (1/2)³ = 7/8 of it. *)
let pyramid () =
  let r =
    relation [ "x"; "y"; "z" ]
      "z >= 0 /\\ z <= 2*x /\\ z <= 2 - 2*x /\\ z <= 2*y /\\ z <= 2 - 2*y"
  in
  check_volume r;
  let p = prepare r in
  Alcotest.(check int) "five vertices" 5 (Pyr.vertices (lattice p));
  (* The body, 5 facets, 8 edges and 5 vertices. *)
  Alcotest.(check int) "nineteen faces" 19 (Pyr.faces (lattice p));
  check_fraction ~what:"pyramid below z = 1/2" ~truth:0.875 (draws p ~n:50_000) (fun x ->
      x.(2) <= 0.5)

(* A redundant row (2x + 2y ≤ 2 repeats x + y ≤ 1) keys the same faces
   as the triangle alone. *)
let redundant_row () =
  let r = relation [ "x"; "y" ] "x >= 0 /\\ y >= 0 /\\ x + y <= 1 /\\ 2*x + 2*y <= 2" in
  check_volume r;
  let p = prepare r in
  Alcotest.(check int) "seven faces" 7 (Pyr.faces (lattice p));
  check_fraction ~what:"redundant-row triangle x <= y" ~truth:0.5 (draws p ~n:50_000) (fun x ->
      x.(0) <= x.(1))

(* A thin 3-simplex, 1000 times longer than wide, is fat once rounded;
   its corner at the origin cut at x₁ ≤ 1/2 holds 1 − (1/2)³ = 7/8. *)
let thin_simplex () =
  let r = relation (vars 3) "x1 >= 0 /\\ x2 >= 0 /\\ x3 >= 0 /\\ x1 + 1000*x2 + 1000*x3 <= 1" in
  check_volume r;
  check_fraction ~what:"thin simplex x1 <= 1/2" ~truth:0.875 (draws (prepare r) ~n:50_000) (fun x ->
      x.(0) <= 0.5)

(* Typed declines, never an exception. *)
let declines () =
  let poly = Polytope.simplex 3 in
  (match Pyr.build poly with
  | Error Pyr.No_interior -> ()
  | _ -> Alcotest.fail "a body with the origin on its boundary is declined");
  (* x + 1e-9·y ≤ 1 meets x ≤ 1 at the feasible (1, 0) at a pivot of
     about 1e-9. *)
  (match Pyr.build (Polytope.add_halfspace (Polytope.cube 2 1.0) [| 1.0; 1e-9 |] 1.0) with
  | Error (Pyr.Ill_conditioned_vertex _) -> ()
  | _ -> Alcotest.fail "a nearly parallel pair of rows is declined");
  let wide = Polytope.cube 2 1.0 in
  let rows = List.init 63 (fun i -> ([| cos (0.01 *. float_of_int i); sin (0.01 *. float_of_int i) |], 2.0)) in
  let wide = List.fold_left (fun p (a, b) -> Polytope.add_halfspace p a b) wide rows in
  match Pyr.build wide with
  | Error (Pyr.Too_many_rows _) -> ()
  | _ -> Alcotest.fail "67 rows are declined"

let suites =
  [
    ( "sampling.pyramid",
      [
        ts "2-simplex ordered fraction is 1/2!" (simplex_order 2);
        ts "3-simplex ordered fraction is 1/3!" (simplex_order 3);
        ts "4-simplex ordered fraction is 1/4!" (simplex_order 4);
        ts "5-simplex ordered fraction is 1/5!" (simplex_order 5);
        ts "6-simplex ordered fraction is 1/6!" (simplex_order 6);
        ts "7-simplex ordered fraction is 1/7!" (simplex_order 7);
        ts "8-simplex ordered fraction is 1/8!" (simplex_order 8);
        ts "Fig. 1 triangle chi-square" triangle_chi_square;
        ts "4-cube chi-square" cube_chi_square;
        ts "pyramid over a square" pyramid;
        t "redundant row" redundant_row;
        t "thin simplex" thin_simplex;
        t "typed declines" declines;
      ] );
  ]
