(* The workloads' inputs, all generated from the benchmark seed.  The
   library only ever sees what is built here: formula text, relations,
   a GIS instance and per-request seeds.  Ground truths are computed
   here too, and every one is checked finite before a request runs. *)

module FM = Scdb_qe.Fourier_motzkin
module Synth = Scdb_gis.Synth
module Audit = Scdb_audit.Audit

type rel = {
  label : string;
  vars : string list;
  text : string;  (** FO+LIN source, as a user would type it *)
  relation : Relation.t;  (** [text] parsed and quantifier-eliminated *)
}

let sub_seed seed tag = Hashtbl.hash (seed, tag)

(* Seed of request [i] of a workload: every request draws its own stream. *)
let request_seed ~seed ~workload i = Hashtbl.hash (seed, workload, i)

let xs d = List.init d (Printf.sprintf "x%d")

let of_text label vars text =
  let f = Parser.parse ~vars text in
  let f = if Formula.is_quantifier_free f then f else FM.eliminate f in
  { label; vars; text; relation = Relation.of_formula ~dim:(List.length vars) f }

let triangle () = of_text "triangle" [ "x"; "y" ] "x >= 0 /\\ y >= 0 /\\ x + y <= 1"

let union () =
  of_text "union" [ "x"; "y" ]
    "(x >= 0 /\\ y >= 0 /\\ x + y <= 1) \\/ (x >= 2 /\\ x <= 3 /\\ y >= 0 /\\ y <= 1)"

let simplex d =
  of_text (Printf.sprintf "simplex%d" d) (xs d) (Relation.to_text (Relation.standard_simplex d))

(* A grid of disjoint random convex parcels in unit cells, rendered to
   text with their big-rational coefficients. *)
let parcels seed (rows, cols) =
  let rng = Rng.create (sub_seed seed "parcels") in
  let ps = Synth.parcel_grid rng ~rows ~cols ~cell:1.0 ~jitter:0.05 in
  let r = List.fold_left Relation.union (List.hd ps) (List.tl ps) in
  of_text "parcels" (xs 2) (Relation.to_text r)

(* A land-use instance on [0,9]² from Synth primitives: the 3×3 parcel
   grid and terrain prisms of [Synth.land_use_instance], with its two
   lakes at fixed centres, each straddling the boundary of two parcels.
   Random lake centres make the cost of every lake query swing with the
   seed, and some seeds put both lakes between the parcels. *)
let land_use seed =
  let rng = Rng.create (sub_seed seed "land-use") in
  let union rs = List.fold_left Relation.union (List.hd rs) (List.tl rs) in
  let parcels = Synth.parcel_grid rng ~rows:3 ~cols:3 ~cell:3.0 ~jitter:0.05 in
  let lakes =
    List.map
      (fun centre -> Synth.random_convex_parcel rng ~centre ~radius:1.2 ~facets:7)
      [ [| 3.0; 4.5 |]; [| 6.0; 1.5 |] ]
  in
  let terrain =
    List.mapi
      (fun k base -> Synth.elevation_prism ~base ~height:(Rational.of_ints (3 + (k mod 4)) 2))
      parcels
  in
  let inst = Scdb_gis.Instance.create Synth.land_use_schema in
  let inst = Scdb_gis.Instance.set inst "Parcels" (union parcels) in
  let inst = Scdb_gis.Instance.set inst "Lakes" (union lakes) in
  Scdb_gis.Instance.set inst "Terrain" (union terrain)

(* Needs Fourier-Motzkin before sampling. *)
let fm () =
  of_text "fm" [ "x"; "y" ] "exists z. z >= 0 /\\ x >= z /\\ y >= z /\\ x + y + z <= 2 /\\ y <= 1 + z"

let rec factorial d = if d <= 1 then 1 else d * factorial (d - 1)

let finite_truth label v =
  if Float.is_finite v && v > 0.0 then v
  else failwith (Printf.sprintf "truth for %s is %h, not a finite positive volume" label v)

(* Exact volume of a relation whose tuples are pairwise disjoint: the
   sum of per-tuple exact volumes, each converted to float on its own.
   Converting one exact rational for the whole union overflows both
   numerator and denominator to infinity and reads as nan. *)
let disjoint_truth r =
  let dim = Relation.dim r.relation in
  finite_truth r.label
    (List.fold_left
       (fun acc tuple ->
         match Audit.exact_truth (Relation.make ~dim [ tuple ]) with
         | Some q -> acc +. finite_truth r.label (Rational.to_float q)
         | None -> failwith ("no exact volume for a tuple of " ^ r.label))
       0.0 (Relation.tuples r.relation))

let simplex_truth d = finite_truth (Printf.sprintf "simplex%d" d) (1.0 /. float_of_int (factorial d))

(* The γ = 0.25 cells lying wholly inside one tuple of a 2-D relation:
   a uniform generator puts equal mass on each of them. *)
type cells = { cell : float; index : (int * int, int) Hashtbl.t; count : int }

let cells_of (r : Relation.t) =
  let cell = 0.25 in
  let index = Hashtbl.create 64 in
  List.iter
    (fun tuple ->
      let one = Relation.make ~dim:2 [ tuple ] in
      match Scdb_polytope.Polytope.bounding_box (Scdb_polytope.Polytope.of_tuple ~dim:2 tuple) with
      | None -> ()
      | Some (lo, hi) ->
          let range a b =
            (int_of_float (Float.floor (a /. cell)), int_of_float (Float.ceil (b /. cell)))
          in
          let i0, i1 = range lo.(0) hi.(0) and j0, j1 = range lo.(1) hi.(1) in
          for i = i0 to i1 - 1 do
            for j = j0 to j1 - 1 do
              let x0 = float_of_int i *. cell and y0 = float_of_int j *. cell in
              let corners =
                [
                  [| x0; y0 |]; [| x0 +. cell; y0 |]; [| x0; y0 +. cell |]; [| x0 +. cell; y0 +. cell |];
                ]
              in
              if List.for_all (Relation.mem_float one) corners && not (Hashtbl.mem index (i, j))
              then Hashtbl.replace index (i, j) (Hashtbl.length index)
            done
          done)
    (Relation.tuples r);
  { cell; index; count = Hashtbl.length index }

let cell_of c (p : Vec.t) =
  Hashtbl.find_opt c.index
    (int_of_float (Float.floor (p.(0) /. c.cell)), int_of_float (Float.floor (p.(1) /. c.cell)))

(* Total variation between the hit frequencies and uniform over the
   cells, with the sampling-noise level sqrt(K/(2πN)) it would show for
   an exact generator. *)
let cell_tv c hits =
  let n = Array.fold_left ( + ) 0 hits in
  if n = 0 || c.count = 0 then (0.0, 0.0)
  else begin
    let k = float_of_int c.count and nf = float_of_int n in
    let tv =
      0.5
      *. Array.fold_left
           (fun acc h -> acc +. Float.abs ((float_of_int h /. nf) -. (1.0 /. k)))
           0.0 hits
    in
    (tv, sqrt (k /. (2.0 *. Float.pi *. nf)))
  end
