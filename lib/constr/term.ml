module IMap = Map.Make (Int)

type t = { coeffs : Rational.t IMap.t; constant : Rational.t }

let normalize coeffs = IMap.filter (fun _ c -> not (Rational.is_zero c)) coeffs

let zero = { coeffs = IMap.empty; constant = Rational.zero }
let const c = { coeffs = IMap.empty; constant = c }
let of_int i = const (Rational.of_int i)
let var i = { coeffs = IMap.singleton i Rational.one; constant = Rational.zero }

let monomial c i =
  if Rational.is_zero c then zero else { coeffs = IMap.singleton i c; constant = Rational.zero }

let make coeffs constant =
  let m =
    List.fold_left
      (fun acc (i, c) ->
        IMap.update i (function None -> Some c | Some c' -> Some (Rational.add c c')) acc)
      IMap.empty coeffs
  in
  { coeffs = normalize m; constant }

let add a b =
  {
    coeffs =
      IMap.union
        (fun _ x y ->
          let s = Rational.add x y in
          if Rational.is_zero s then None else Some s)
        a.coeffs b.coeffs;
    constant = Rational.add a.constant b.constant;
  }

let scale s t =
  if Rational.is_zero s then zero
  else { coeffs = IMap.map (Rational.mul s) t.coeffs; constant = Rational.mul s t.constant }

let neg t = scale Rational.minus_one t
let sub a b = add a (neg b)

let coeff t i = match IMap.find_opt i t.coeffs with Some c -> c | None -> Rational.zero
let constant t = t.constant
let coeffs t = IMap.bindings t.coeffs
let vars t = List.map fst (coeffs t)
let max_var t = match IMap.max_binding_opt t.coeffs with Some (i, _) -> i | None -> -1
let is_const t = IMap.is_empty t.coeffs

let eval t x =
  IMap.fold (fun i c acc -> Rational.add acc (Rational.mul c x.(i))) t.coeffs t.constant

(* The one exact-to-float lowering.  A constraint [t op 0] keeps its
   meaning under a positive scale, so when a part of [t] lies beyond the
   float range the whole term is first scaled, exactly, by the power of
   two that brings its largest part near 1.  A term whose parts are all
   in range keeps its bits. *)
let float_row t =
  let lower t =
    ( List.map (fun (i, c) -> (i, Rational.to_float c)) (IMap.bindings t.coeffs),
      Rational.to_float t.constant )
  in
  let ((ws, c) as row) = lower t in
  if Float.is_finite c && List.for_all (fun (_, w) -> Float.is_finite w) ws then row
  else
    let log2 (q : Rational.t) = Bigint.num_bits q.num - Bigint.num_bits q.den in
    let e =
      IMap.fold (fun _ c e -> Stdlib.max e (log2 c)) t.coeffs
        (if Rational.is_zero t.constant then min_int else log2 t.constant)
    in
    let pow2 k = Rational.of_bigint (Bigint.shift_left Bigint.one k) in
    lower (scale (if e >= 0 then Rational.inv (pow2 e) else pow2 (-e)) t)

(* [float_row]'s value without building the row: a finite sum had every
   part in range, so it is the in-range row's value bit for bit; only a
   non-finite one is recomputed on the (possibly scaled) row. *)
let eval_float t x =
  let v =
    IMap.fold (fun i c acc -> acc +. (Rational.to_float c *. x.(i))) t.coeffs
      (Rational.to_float t.constant)
  in
  if Float.is_finite v then v
  else
    let ws, c = float_row t in
    List.fold_left (fun acc (i, w) -> acc +. (w *. x.(i))) c ws

let subst t i u =
  match IMap.find_opt i t.coeffs with
  | None -> t
  | Some c ->
      let rest = { t with coeffs = IMap.remove i t.coeffs } in
      add rest (scale c u)

let rename t f =
  (* Non-injective renamings merge coefficients (x + y under x,y ↦ z
     becomes 2z), so substituting repeated arguments stays sound. *)
  let coeffs =
    IMap.fold
      (fun i c acc ->
        IMap.update (f i)
          (function
            | None -> Some c
            | Some c' ->
                let s = Rational.add c c' in
                if Rational.is_zero s then None else Some s)
          acc)
      t.coeffs IMap.empty
  in
  { t with coeffs }

let compare a b =
  let c = IMap.compare Rational.compare a.coeffs b.coeffs in
  if c <> 0 then c else Rational.compare a.constant b.constant

let equal a b = compare a b = 0

let to_float_row d t =
  if max_var t >= d then invalid_arg "Term.to_float_row: variable out of range";
  let ws, c = float_row t in
  let w = Vec.create d in
  List.iter (fun (i, f) -> w.(i) <- f) ws;
  (w, c)

let pp_named name fmt t =
  let parts = coeffs t in
  if parts = [] then Rational.pp fmt t.constant
  else begin
    let first = ref true in
    let print_signed q text =
      let s = Rational.sign q in
      if !first then begin
        if s < 0 then Format.pp_print_string fmt "-";
        first := false
      end
      else Format.pp_print_string fmt (if s < 0 then " - " else " + ");
      text (Rational.abs q)
    in
    List.iter
      (fun (i, c) ->
        print_signed c (fun a ->
            if Rational.equal a Rational.one then Format.pp_print_string fmt (name i)
            else Format.fprintf fmt "%a*%s" Rational.pp a (name i)))
      parts;
    if not (Rational.is_zero t.constant) then
      print_signed t.constant (fun a -> Rational.pp fmt a)
  end

let default_name i = Printf.sprintf "x%d" i
let pp fmt t = pp_named default_name fmt t
