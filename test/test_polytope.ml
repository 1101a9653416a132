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

(* The exact oracle as it stood before its LP gates were trimmed: one
   feasibility LP and 2·dim boundedness LPs before every Lasserre call,
   and inclusion–exclusion over every subset.  The recursion is a copy,
   so the differential properties below compare the library against an
   independent reference. *)
module Reference_oracle = struct
  module Es = Scdb_lp.Exact_simplex

  type cstr = { row : Q.t array; rhs : Q.t }

  let preprocess cstrs =
    let table = Hashtbl.create 16 in
    let infeasible = ref false in
    List.iter
      (fun c ->
        match Array.find_opt (fun x -> not (Q.is_zero x)) c.row with
        | None -> if Q.sign c.rhs < 0 then infeasible := true
        | Some l -> (
            let s = Q.inv (Q.abs l) in
            let c = { row = Array.map (Q.mul s) c.row; rhs = Q.mul s c.rhs } in
            let key = Array.map Q.to_string c.row in
            match Hashtbl.find_opt table key with
            | Some c' when Q.compare c'.rhs c.rhs <= 0 -> ()
            | _ -> Hashtbl.replace table key c))
      cstrs;
    if !infeasible then None else Some (Hashtbl.fold (fun _ c acc -> c :: acc) table [])

  let substitute ~k ~pivot c =
    let factor = Q.div c.row.(k) pivot.row.(k) in
    let row =
      Array.init
        (Array.length c.row - 1)
        (fun j ->
          let j' = if j < k then j else j + 1 in
          Q.sub c.row.(j') (Q.mul factor pivot.row.(j')))
    in
    { row; rhs = Q.sub c.rhs (Q.mul factor pivot.rhs) }

  let rec volume_rec dim cstrs =
    match preprocess cstrs with
    | None -> Q.zero
    | Some cstrs when dim = 1 -> (
        let lo = ref None and hi = ref None in
        List.iter
          (fun c ->
            let a = c.row.(0) in
            let v = Q.div c.rhs a in
            if Q.sign a > 0 then (
              match !hi with Some h when Q.compare h v <= 0 -> () | _ -> hi := Some v)
            else if Q.sign a < 0 then
              match !lo with Some l when Q.compare l v >= 0 -> () | _ -> lo := Some v)
          cstrs;
        match (!lo, !hi) with
        | Some l, Some h -> if Q.compare l h >= 0 then Q.zero else Q.sub h l
        | _ -> raise VE.Unbounded)
    | Some cstrs ->
        if cstrs = [] then raise VE.Unbounded;
        let arr = Array.of_list cstrs in
        let total = ref Q.zero in
        Array.iteri
          (fun i pivot ->
            let k = ref 0 in
            Array.iteri
              (fun j c -> if Q.compare (Q.abs c) (Q.abs pivot.row.(!k)) > 0 then k := j)
              pivot.row;
            if not (Q.is_zero pivot.row.(!k)) then begin
              let facet =
                List.filteri (fun i' _ -> i' <> i) (Array.to_list arr)
                |> List.map (substitute ~k:!k ~pivot)
              in
              let sub = volume_rec (dim - 1) facet in
              if not (Q.is_zero sub) then
                total :=
                  Q.add !total
                    (Q.div (Q.mul pivot.rhs sub) (Q.mul (q dim) (Q.abs pivot.row.(!k))))
            end)
          arr;
        !total

  let volume_system ~dim a b =
    if dim = 0 then if Es.is_feasible ~a ~b then Q.one else Q.zero
    else if not (Es.is_feasible ~a ~b) then Q.zero
    else begin
      for i = 0 to dim - 1 do
        List.iter
          (fun s ->
            match Es.maximize ~a ~b ~c:(Array.init dim (fun j -> if i = j then q s else Q.zero)) with
            | Es.Unbounded -> raise VE.Unbounded
            | Es.Infeasible | Es.Optimal _ -> ())
          [ 1; -1 ]
      done;
      volume_rec dim (Array.to_list (Array.map2 (fun row rhs -> { row; rhs }) a b))
    end

  let tuple_system ~dim tuple =
    let rows =
      List.concat_map
        (fun (atom : Atom.t) ->
          let row = Array.make dim Q.zero in
          List.iter (fun (i, c) -> row.(i) <- c) (Term.coeffs atom.term);
          let rhs = Q.neg (Term.constant atom.term) in
          match atom.op with
          | Atom.Le | Atom.Lt -> [ (row, rhs) ]
          | Atom.Eq -> [ (row, rhs); (Array.map Q.neg row, Q.neg rhs) ])
        tuple
    in
    (Array.of_list (List.map fst rows), Array.of_list (List.map snd rows))

  let volume_relation r =
    let tuples = Array.of_list (Relation.tuples r) in
    let t = Array.length tuples and dim = Relation.dim r in
    let total = ref Q.zero in
    for mask = 1 to (1 lsl t) - 1 do
      let members = List.filter (fun i -> mask land (1 lsl i) <> 0) (List.init t Fun.id) in
      let a, b = tuple_system ~dim (List.concat_map (fun i -> tuples.(i)) members) in
      let v = volume_system ~dim a b in
      total := Q.add !total (if List.length members mod 2 = 1 then v else Q.neg v)
    done;
    !total
end

(* Same rational, or both raise [Unbounded]. *)
let same_answer f g =
  let run h = match h () with v -> Some v | exception VE.Unbounded -> None in
  match (run f, run g) with
  | Some a, Some b -> Q.equal a b
  | None, None -> true
  | _ -> false

(* Small integer coefficients, zero a third of the time, so empty,
   unbounded, flat, duplicate and constant rows all turn up. *)
let small_coeff = QCheck.Gen.(frequency [ (1, return 0); (2, int_range (-2) 2) ])

(* One coefficient kind per system: small integers; dyadic 53-bit
   values, as [Rational.of_float] makes them from parsed and sampled
   floats; or non-dyadic fractions such as 1/3 and 7/5, as
   Fourier–Motzkin combinations make them. *)
let coeff_kinds =
  QCheck.Gen.(
    frequencyl
      [
        (3, map q small_coeff);
        (1, frequency [ (1, return Q.zero); (2, map Q.of_float (float_range (-2.0) 2.0)) ]);
        (1, frequency [ (1, return Q.zero); (2, map2 Q.of_ints (int_range (-7) 7) (oneofl [ 1; 3; 5; 7 ])) ]);
      ])

let arbitrary_system =
  let gen =
    QCheck.Gen.(
      let* dim = 0 -- 4 in
      let* rows = 0 -- 8 in
      let* coeff = coeff_kinds in
      let* a = array_repeat rows (array_repeat dim coeff) in
      let* b = array_repeat rows (oneof [ map q (int_range (-3) 3); coeff ]) in
      (* Copies of some rows: exact duplicates, or scaled by a positive
         factor, each with its right-hand side scaled alike or moved, so
         the tightest-rhs choice between parallel rows is exercised. *)
      let* copies =
        if rows = 0 then return []
        else
          list_size (0 -- 3)
            (triple (0 -- (rows - 1))
               (oneofl [ Q.one; q 2; Q.of_ints 7 5; Q.of_ints 1 3; Q.of_float 0x1p-20 ])
               (oneofl [ Q.zero; Q.zero; Q.one; Q.of_ints (-1) 3 ]))
      in
      let extra_a = List.map (fun (i, s, _) -> Array.map (Q.mul s) a.(i)) copies in
      let extra_b = List.map (fun (i, s, shift) -> Q.add (Q.mul s b.(i)) shift) copies in
      return (dim, Array.append a (Array.of_list extra_a), Array.append b (Array.of_list extra_b)))
  in
  let print (dim, a, b) =
    Printf.sprintf "dim %d: %s" dim
      (String.concat "; "
         (Array.to_list
            (Array.map2
               (fun row rhs ->
                 String.concat " " (Array.to_list (Array.map Q.to_string row)) ^ " <= " ^ Q.to_string rhs)
               a b)))
  in
  QCheck.make ~print gen

(* Unions of up to five tuples over a small integer grid: boxes of
   width 0..2 (so disjoint, touching, overlapping and flat ones occur),
   sometimes cut by a halfspace or missing one bound. *)
let arbitrary_union =
  let gen =
    QCheck.Gen.(
      let* dim = 1 -- 3 in
      let tuple =
        let* lo = array_repeat dim (0 -- 3) in
        let* width = array_repeat dim (0 -- 2) in
        let* open_side = frequency [ (5, return None); (1, map Option.some (0 -- (dim - 1))) ] in
        let* cut = opt (pair (array_repeat dim small_coeff) (int_range (-1) 4)) in
        let bounds =
          List.concat
            (List.init dim (fun i ->
                 let lower = Atom.le (Term.of_int lo.(i)) (Term.var i) in
                 let upper = Atom.le (Term.var i) (Term.of_int (lo.(i) + width.(i))) in
                 if open_side = Some i then [ lower ] else [ lower; upper ]))
        in
        let cut =
          match cut with
          | None -> []
          | Some (row, rhs) ->
              [ Atom.make (Term.make (List.init dim (fun i -> (i, q row.(i)))) (q (-rhs))) Atom.Le ]
        in
        return (cut @ bounds)
      in
      let* tuples = list_size (1 -- 5) tuple in
      return (Relation.make ~dim tuples))
  in
  QCheck.make ~print:Relation.to_text gen

(* The exact volume and Lasserre call count of each parcel of
   [Synth.parcel_grid (Rng.create 7)] and of its elevation prism, as
   the rational recursion computed them before the recursion moved to
   integer rows.  An exact volume is a unique rational, so the strings
   are the contract; the counts pin the recursion's shape. *)
let parcel_grid_pins =
  [
    ("parcel", "449990320962464413215547183011064959623048767836668747760277896229629832532290585277085023488289065793137509522269088694527876706422683499759576494594415670919850008085817089435120207536422433104714041709327505657/1285285002245646551070949485749554006341764016021957445623326668888438758150208665280208396793629885935251620979033013477105090763940998164083444891323389987026288559820885266121339658660136923988069815767795761152", 12);
    ("prism", "449990320962464413215547183011064959623048767836668747760277896229629832532290585277085023488289065793137509522269088694527876706422683499759576494594415670919850008085817089435120207536422433104714041709327505657/856856668163764367380632990499702670894509344014638297082217779258959172100139110186805597862419923956834413986022008984736727175960665442722296594215593324684192373213923510747559772440091282658713210511863840768", 80);
    ("parcel", "62686803142048350540149831366721501077955416328010612895417464750322818296955872686639241066421403252919308950655118696653665433166082377075252651148524684811163416204957256203856622257819/129903071247043670700619044223295968615585961827213215164260854026254185877218360383718158657009716089863868433871434840721646547664730497732323634998657302921674929699545832032289280753664", 11);
    ("prism", "62686803142048350540149831366721501077955416328010612895417464750322818296955872686639241066421403252919308950655118696653665433166082377075252651148524684811163416204957256203856622257819/64951535623521835350309522111647984307792980913606607582130427013127092938609180191859079328504858044931934216935717420360823273832365248866161817499328651460837464849772916016144640376832", 73);
    ("parcel", "96510559448337234156889444064197937276471742727515702636294807006205639544366121475934672258738517559059292474044077694243566657548306545748419326699896866259045924714849066808605005238125985008921711830889982401832649/207860086292837382603309190294744472755480786021249599666989798258776973676083168267870104245333815165840896095207353339410962782713163933247191577701045357945317600811752343223500703670257287296487287390980684078120960", 11);
    ("prism", "96510559448337234156889444064197937276471742727515702636294807006205639544366121475934672258738517559059292474044077694243566657548306545748419326699896866259045924714849066808605005238125985008921711830889982401832649/83144034517134953041323676117897789102192314408499839866795919303510789470433267307148041698133526066336358438082941335764385113085265573298876631080418143178127040324700937289400281468102914918594914956392273631248384", 73);
    ("parcel", "427114202101720208688284732778810052085184805150538278821862149461854378658493759448904172879614097235246653093192868020673133578029015010546711864944432128436053426906731474942471078183918260826096175554734085003893302/1325482632373522759228968519520157021065883889539575942647584861595097541746946656271385787327642127006678023131849435397847908858926054412029520728035816428234663549430658152382792526915683962511041485818773715755429229", 12);
    ("prism", "427114202101720208688284732778810052085184805150538278821862149461854378658493759448904172879614097235246653093192868020673133578029015010546711864944432128436053426906731474942471078183918260826096175554734085003893302/441827544124507586409656173173385673688627963179858647549194953865032513915648885423795262442547375668892674377283145132615969619642018137343173576011938809411554516476886050794264175638561320837013828606257905251809743", 80);
    ("parcel", "4549498125902244712346555342712993556053691295429252741131200273781835725170130363726828726533592560700039748545475731402381659049595240418395428858593192615224656524356650264115725058003/10087077447158018375521863508644054001263231983161299633792593115376744082781378673840029145552346385599947597548673683074770688200349408842682523630329209379595857780732169772107722391552", 12);
    ("prism", "4549498125902244712346555342712993556053691295429252741131200273781835725170130363726828726533592560700039748545475731402381659049595240418395428858593192615224656524356650264115725058003/6724718298105345583681242339096036000842154655440866422528395410251162721854252449226686097034897590399965065032449122049847125466899605895121682420219472919730571853821446514738481594368", 80);
    ("parcel", "16608382590244743146029038170761892551896492884698686488206774178896551963160977029832085533005208387404983296107491704914257/36453745435703179907346828985326971385705267859703378966044416727097240035863490555936145062506933675423440834273405137059840", 12);
    ("prism", "16608382590244743146029038170761892551896492884698686488206774178896551963160977029832085533005208387404983296107491704914257/18226872717851589953673414492663485692852633929851689483022208363548620017931745277968072531253466837711720417136702568529920", 80);
    ("parcel", "1372499001227016831334624917787806156498898745608986352908751316280019757603895266105959757501867593462939441971150525215613098287859958544813414695340249343/3529251749248033472712749724630768561628082032090572940782944964534275006840200031584380709711995278868987261618022428759898917167150452569251003940156211200", 12);
    ("prism", "1372499001227016831334624917787806156498898745608986352908751316280019757603895266105959757501867593462939441971150525215613098287859958544813414695340249343/1411700699699213389085099889852307424651232812836229176313177985813710002736080012633752283884798111547594904647208971503959566866860181027700401576062484480", 80);
    ("parcel", "12455945860914942898577488528220540104118707774497519440747026246757183519076437864330187185076820623278496752946183259271901479212329727490788812170194541/33452731024392357057362722471281597263061716762412270811348462434324632641107707755380553397002583308964520071885741215183779973808631552489464637696245760", 11);
    ("prism", "12455945860914942898577488528220540104118707774497519440747026246757183519076437864330187185076820623278496752946183259271901479212329727490788812170194541/11150910341464119019120907490427199087687238920804090270449487478108210880369235918460184465667527769654840023961913738394593324602877184163154879232081920", 73);
    ("parcel", "1002399387216035105589038937007617852921473236479654927492274239166183268186004854000357736599554022509752263683698105312552957497892245479079712196724537201127634081687098512835418188330861883457427585121250641486881520845/2569788253162047068598301891696747668135750603084969650817113902395578069629556633393698071394325840582214789777223639143005075608562904745581437462677480419084867104046851468669234932769323975173227505452759139944903999488", 12);
    ("prism", "3007198161648105316767116811022853558764419709438964782476822717498549804558014562001073209798662067529256791051094315937658872493676736437239136590173611603382902245061295538506254564992585650372282755363751924460644562535/5139576506324094137196603783393495336271501206169939301634227804791156139259113266787396142788651681164429579554447278286010151217125809491162874925354960838169734208093702937338469865538647950346455010905518279889807998976", 80);
  ]

let oracle_tests =
  [
    qt ~count:1000 "volume_system matches the LP-gated reference" arbitrary_system
      (fun (dim, a, b) ->
        same_answer
          (fun () -> VE.volume_system ~dim a b)
          (fun () -> Reference_oracle.volume_system ~dim a b));
    qt ~count:150 "volume_relation matches unpruned inclusion-exclusion" arbitrary_union (fun r ->
        same_answer
          (fun () -> VE.volume_relation r)
          (fun () -> Reference_oracle.volume_relation r));
    t "dims 0 and 1 decide emptiness without an LP" (fun () ->
        let a0 = [| [||]; [||] |] in
        Alcotest.(check string) "dim 0 feasible" "1" (Q.to_string (VE.volume_system ~dim:0 a0 [| q 0; q 2 |]));
        Alcotest.(check string) "dim 0 empty" "0" (Q.to_string (VE.volume_system ~dim:0 a0 [| q 1; q (-1) |]));
        let a1 = [| [| q 1 |]; [| q (-1) |] |] in
        Alcotest.(check string) "dim 1 empty" "0" (Q.to_string (VE.volume_system ~dim:1 a1 [| q 0; q (-1) |]));
        Alcotest.check_raises "dim 1 unbounded" VE.Unbounded (fun () ->
            ignore (VE.volume_system ~dim:1 [| [| q 1 |] |] [| q 0 |])));
    t "an unbounded system is caught by the recursion" (fun () ->
        (* A quadrant, a strip and a line in R^3: each has a non-empty
           unbounded facet section. *)
        List.iter
          (fun (a, b) ->
            Alcotest.check_raises "unbounded" VE.Unbounded (fun () -> ignore (VE.volume_system ~dim:3 a b)))
          [
            ([| [| q (-1); q 0; q 0 |]; [| q 0; q (-1); q 0 |]; [| q 0; q 0; q 1 |]; [| q 0; q 0; q (-1) |] |],
             [| q 0; q 0; q 1; q 0 |]);
            ([| [| q 1; q 0; q 0 |]; [| q (-1); q 0; q 0 |] |], [| q 1; q 0 |]);
            ([| [| q 1; q 1; q 0 |]; [| q (-1); q (-1); q 0 |]; [| q 0; q 0; q 1 |]; [| q 0; q 0; q (-1) |] |],
             [| q 0; q 0; q 0; q 0 |]);
          ]);
    qt ~count:1000 "skipping the feasibility LP changes no answer" arbitrary_system
      (fun (dim, a, b) ->
        same_answer (fun () -> VE.volume_system ~nonempty:true ~dim a b) (fun () -> VE.volume_system ~dim a b));
    qt ~count:1000 "Lasserre calls never exceed Cost.lasserre_calls" arbitrary_system
      (fun (dim, a, b) ->
        (* Without the LP gate, so empty systems recurse too. *)
        let calls = ref 0 in
        (try ignore (VE.volume_system ~calls ~nonempty:true ~dim a b) with VE.Unbounded -> ());
        float_of_int !calls <= Scdb_plan.Cost.lasserre_calls ~dim ~rows:(Array.length a));
    t "parcel-grid volumes and call counts are pinned" (fun () ->
        let parcels =
          Scdb_gis.Synth.parcel_grid (Rng.create 7) ~rows:3 ~cols:3 ~cell:1.0 ~jitter:0.05
        in
        let actual =
          List.concat
            (List.mapi
               (fun k parcel ->
                 let prism =
                   Scdb_gis.Synth.elevation_prism ~base:parcel ~height:(Q.of_ints (3 + (k mod 4)) 2)
                 in
                 List.map
                   (fun (kind, r) ->
                     let calls = ref 0 in
                     let v = VE.volume_tuple ~calls ~dim:(Relation.dim r) (List.hd (Relation.tuples r)) in
                     (kind, Q.to_string v, !calls))
                   [ ("parcel", parcel); ("prism", prism) ])
               parcels)
        in
        Alcotest.(check (list (triple string string int))) "pins" parcel_grid_pins actual);
    t "Cost.lasserre_calls is tight on simplices" (fun () ->
        (* No row of a simplex is redundant or parallel to another, so
           every recursion keeps all of them. *)
        List.iter
          (fun d ->
            let calls = ref 0 in
            let tuple = List.hd (Relation.tuples (Relation.standard_simplex d)) in
            ignore (VE.volume_tuple ~calls ~dim:d tuple);
            Alcotest.(check (float 0.0))
              (Printf.sprintf "d=%d" d)
              (Scdb_plan.Cost.lasserre_calls ~dim:d ~rows:(VE.tuple_rows tuple))
              (float_of_int !calls))
          [ 1; 2; 3; 4; 5 ]);
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

module B = P.Kernel.Batch

(* Stage [dir] on chain 0 of a one-chain batch and take its chord. *)
let chord1 b dir =
  B.set_dir b 0 dir;
  B.chord_all b;
  (B.lo b 0, B.hi b 0)

(* Worst violation of chain 0's position moved by [delta], read off
   its cached products through [propose_all] (which floors it at 0). *)
let proposed_violation b delta =
  B.set_dir b 0 delta;
  B.propose_all b;
  B.violation b 0

(* A chain index out of range must raise before any write: positions
   and staged directions are unchanged after each rejected call. *)
let rejects_bad_chain name call =
  t (Printf.sprintf "Batch.%s rejects a chain out of range" name) (fun () ->
      let poly = P.cube 3 1.0 in
      let b = B.make poly [| [| 0.25; 0.; 0. |] |] in
      B.set_dir b 0 [| 0.; 1.; 0. |];
      B.chord_all b;
      let x0 = Array.copy (B.positions b) and d0 = Array.copy (B.directions b) in
      List.iter
        (fun c ->
          Alcotest.check_raises (Printf.sprintf "chain %d" c)
            (Invalid_argument (Printf.sprintf "Polytope.Kernel.Batch.%s: chain out of range" name))
            (fun () -> call b c);
          Alcotest.(check (array (float 0.0))) "positions untouched" x0 (B.positions b);
          Alcotest.(check (array (float 0.0))) "directions untouched" d0 (B.directions b))
        [ 1; 7; -1 ])

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
        let b = B.make p [| [| 1.0; 1.0 |] |] in
        let lo, hi = chord1 b [| 1.0; 0.0 |] in
        Alcotest.(check bool) "kernel unbounded chord" true (lo = neg_infinity && hi = infinity);
        Alcotest.(check (float 0.0)) "kernel violation" 0.0 (proposed_violation b [| 5.0; 0.0 |]));
    t "kernel chord agrees with line_intersection" (fun () ->
        let rng = Rng.create 21 in
        let poly = ref (P.cube 5 1.0) in
        for _ = 1 to 12 do
          poly := P.add_halfspace !poly (Rng.unit_vector rng 5) 0.7
        done;
        let poly = !poly in
        let x = Array.make 5 0.1 in
        let b = B.make poly [| x |] in
        for _ = 1 to 50 do
          let dir = Rng.unit_vector rng 5 in
          let lo, hi = chord1 b dir in
          match P.line_intersection poly x dir with
          | Some (elo, ehi) when lo <= hi ->
              Alcotest.(check (float 1e-9)) "lo" elo lo;
              Alcotest.(check (float 1e-9)) "hi" ehi hi
          | None when not (lo <= hi) -> ()
          | Some _ -> Alcotest.fail "kernel missed a chord"
          | None -> Alcotest.fail "kernel invented a chord"
        done);
    t "line_intersection edge cases: parallel row, half-line, point chord" (fun () ->
        (* Every endpoint carries exact bits: signed zeros and
           infinities included. *)
        let bits = Int64.bits_of_float in
        let chord name poly x dir want =
          match (P.line_intersection poly x dir, want) with
          | Some (lo, hi), Some (wlo, whi) ->
              Alcotest.(check int64) (name ^ ": tmin bits") (bits wlo) (bits lo);
              Alcotest.(check int64) (name ^ ": tmax bits") (bits whi) (bits hi)
          | None, None -> ()
          | Some _, None -> Alcotest.fail (name ^ ": expected an empty chord")
          | None, Some _ -> Alcotest.fail (name ^ ": expected a chord")
        in
        let square = P.cube 2 1.0 in
        (* Parallel to the violated row x <= 1: empty, and no later row
           may reopen it. *)
        chord "parallel violated" square [| 5.; 0. |] [| 0.; 1. |] None;
        (* Unbounded along dir on one side, then on both. *)
        let half = P.make ~dim:2 [| [| 1.; 0. |] |] [| 1. |] in
        chord "one-sided" half [| 0.; 0. |] [| 1.; 0. |] (Some (neg_infinity, 1.));
        chord "unbounded" half [| 0.; 0. |] [| 0.; 1. |] (Some (neg_infinity, infinity));
        (* Corner of the square along the anti-diagonal: tmin = tmax,
           as -0 and +0. *)
        chord "point chord" square [| 1.; 1. |] [| 1.; -1. |] (Some (-0., 0.));
        (* Crossing bounds: the line misses the square. *)
        chord "crossing" square [| 3.; 0. |] [| 1.; 1. |] None);
    t "cached products stay coherent across advances" (fun () ->
        let rng = Rng.create 22 in
        let poly = ref (P.cube 4 1.0) in
        for _ = 1 to 8 do
          poly := P.add_halfspace !poly (Rng.unit_vector rng 4) 0.9
        done;
        let poly = !poly in
        let b = B.make poly [| Vec.create 4 |] in
        for _ = 1 to 200 do
          let lo, hi = chord1 b (Rng.unit_vector rng 4) in
          if Float.is_finite lo && Float.is_finite hi && hi > lo then
            B.advance b 0 (0.5 *. (lo +. hi))
        done;
        (* The cache is read back through the two passes that use it:
           chords and proposals from the current position must match a
           from-scratch evaluation there. *)
        let x = B.pos b 0 in
        for k = 1 to 20 do
          let delta = Vec.scale 3.0 (Rng.unit_vector rng 4) in
          Alcotest.(check (float 1e-9))
            (Printf.sprintf "violation %d" k)
            (Float.max 0.0 (P.violation poly (Vec.add x delta)))
            (proposed_violation b delta)
        done;
        for k = 1 to 20 do
          let dir = Rng.unit_vector rng 4 in
          match (P.line_intersection poly x dir, chord1 b dir) with
          | Some (elo, ehi), (lo, hi) ->
              Alcotest.(check (float 1e-9)) (Printf.sprintf "lo %d" k) elo lo;
              Alcotest.(check (float 1e-9)) (Printf.sprintf "hi %d" k) ehi hi
          | None, _ -> Alcotest.fail "position left the body"
        done);
    t "try_set_coord accepts inside and rejects outside" (fun () ->
        let poly = P.cube 3 1.0 in
        let b = B.make poly [| Vec.create 3 |] in
        Alcotest.(check bool) "inside move" true (B.try_set_coord b 0 0 0.5);
        Alcotest.(check bool) "outside move" false (B.try_set_coord b 0 0 1.5);
        let x = B.pos b 0 in
        Alcotest.(check (float 0.0)) "kept accepted move" 0.5 x.(0);
        (* The cache holds the accepted move, not the rejected one. *)
        Alcotest.(check (float 1e-12)) "cached x0 = 0.5" 0.1 (proposed_violation b [| 0.6; 0.; 0. |]);
        Alcotest.check_raises "coordinate out of range"
          (Invalid_argument "Polytope.Kernel.Batch.try_set_coord: coordinate out of range")
          (fun () -> ignore (B.try_set_coord b 0 3 0.0)));
    rejects_bad_chain "advance" (fun b c -> B.advance b c 0.1);
    rejects_bad_chain "try_set_coord" (fun b c -> ignore (B.try_set_coord b c 0 0.25));
    rejects_bad_chain "set_dir" (fun b c -> B.set_dir b c [| 1.; 0.; 0. |]);
    rejects_bad_chain "set_pos" (fun b c -> B.set_pos b c [| 0.5; 0.5; 0.5 |]);
    rejects_bad_chain "pos" (fun b c -> ignore (B.pos b c));
    rejects_bad_chain "refresh_chain" (fun b c -> B.refresh_chain b c);
  ]

let suites =
  [
    ("polytope.hrep", polytope_tests);
    ("polytope.kernel", kernel_tests);
    ("polytope.volume_exact", exact_volume_tests);
    ("polytope.exact_oracle", oracle_tests);
    ("polytope.polygon2d", polygon_tests);
    ("polytope.gridvol", gridvol_tests);
  ]
