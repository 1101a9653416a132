type t = { num : Bigint.t; den : Bigint.t }

(* Canonical form: positive reduced denominator, zero is 0/1.  The
   arithmetic below leans on two classic shortcuts (Knuth 4.5.1): when
   operands are already canonical, [add] only needs a gcd against
   [gcd a.den b.den] and [mul] only needs the two cross gcds — both
   collapse to no gcd at all in the ubiquitous integer / shared
   denominator cases that the simplex pivots and Fourier–Motzkin
   combinations produce. *)

let canonical num den =
  if Bigint.is_zero den then raise Division_by_zero;
  if Bigint.is_zero num then { num = Bigint.zero; den = Bigint.one }
  else begin
    let num, den = if Bigint.sign den < 0 then (Bigint.neg num, Bigint.neg den) else (num, den) in
    if Bigint.equal den Bigint.one then { num; den }
    else begin
      let g = Bigint.gcd num den in
      if Bigint.equal g Bigint.one then { num; den }
      else { num = Bigint.div num g; den = Bigint.div den g }
    end
  end

let make = canonical
let of_bigint n = { num = n; den = Bigint.one }
let of_int i = of_bigint (Bigint.of_int i)
let of_ints a b = canonical (Bigint.of_int a) (Bigint.of_int b)

let zero = of_int 0
let one = of_int 1
let minus_one = of_int (-1)
let two = of_int 2
let half = of_ints 1 2

let of_float f =
  if not (Float.is_finite f) then invalid_arg "Rational.of_float: not finite";
  if f = 0.0 then zero
  else begin
    let mantissa, exponent = Float.frexp f in
    (* mantissa * 2^53 is an integer below 2^53 in magnitude; made odd,
       it shares no factor with the power-of-two denominator. *)
    let rec odd m e = if m land 1 = 0 then odd (m asr 1) (e + 1) else (Bigint.of_int m, e) in
    let num, e = odd (Float.to_int (mantissa *. 9007199254740992.0)) (exponent - 53) in
    if e >= 0 then of_bigint (Bigint.shift_left num e)
    else { num; den = Bigint.shift_left Bigint.one (-e) }
  end

(* A part beyond the float range would read as infinity: scale both by
   one power of two, the larger to about 2^1000, keeping 64 bits each. *)
let to_float t =
  let n = Bigint.to_float t.num and d = Bigint.to_float t.den in
  if Float.is_finite n && Float.is_finite d then n /. d
  else begin
    let s = Stdlib.max (Bigint.num_bits t.num) (Bigint.num_bits t.den) - 1000 in
    let scaled x =
      let drop = Stdlib.max 0 (Bigint.num_bits x - 64) in
      Float.ldexp (Bigint.to_float (Bigint.shift_right x drop)) (drop - s)
    in
    scaled t.num /. scaled t.den
  end

let sign t = Bigint.sign t.num
let is_zero t = Bigint.is_zero t.num
let is_integer t = Bigint.equal t.den Bigint.one

let compare a b =
  (* Same denominator (integers included) needs no cross products, and
     a sign mismatch decides without any multiplication. *)
  if Bigint.equal a.den b.den then Bigint.compare a.num b.num
  else begin
    let sa = Bigint.sign a.num and sb = Bigint.sign b.num in
    if sa <> sb then Stdlib.compare sa sb
    else Bigint.compare (Bigint.mul a.num b.den) (Bigint.mul b.num a.den)
  end

let equal a b = Bigint.equal a.num b.num && Bigint.equal a.den b.den
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

(* Canonical form plus a canonical [Bigint.hash] make this consistent
   with [equal] regardless of whether components sit on the small-int
   or the limb representation. *)
let hash t = Hashtbl.hash (Bigint.hash t.num, Bigint.hash t.den)

let neg t = { t with num = Bigint.neg t.num }
let abs t = { t with num = Bigint.abs t.num }

let inv t =
  if is_zero t then raise Division_by_zero;
  if Bigint.sign t.num < 0 then { num = Bigint.neg t.den; den = Bigint.neg t.num }
  else { num = t.den; den = t.num }

let add a b =
  if Bigint.is_zero a.num then b
  else if Bigint.is_zero b.num then a
  else if Bigint.equal a.den b.den then begin
    (* Shared denominator: only the sum can share a factor with it. *)
    let num = Bigint.add a.num b.num in
    if Bigint.equal a.den Bigint.one then { num; den = Bigint.one } else canonical num a.den
  end
  else if Bigint.equal a.den Bigint.one then
    (* n + p/q = (n·q + p)/q is already reduced: gcd(p, q) = 1. *)
    { num = Bigint.add (Bigint.mul a.num b.den) b.num; den = b.den }
  else if Bigint.equal b.den Bigint.one then
    { num = Bigint.add a.num (Bigint.mul b.num a.den); den = a.den }
  else begin
    let g = Bigint.gcd a.den b.den in
    if Bigint.equal g Bigint.one then
      (* Coprime denominators: the sum is already in lowest terms. *)
      {
        num = Bigint.add (Bigint.mul a.num b.den) (Bigint.mul b.num a.den);
        den = Bigint.mul a.den b.den;
      }
    else begin
      (* Knuth 4.5.1: reduce by g up front; the residual common factor
         of the sum divides g, so the final gcd runs on small data. *)
      let da = Bigint.div a.den g and db = Bigint.div b.den g in
      let num = Bigint.add (Bigint.mul a.num db) (Bigint.mul b.num da) in
      let den = Bigint.mul da b.den in
      let g2 = Bigint.gcd num g in
      if Bigint.equal g2 Bigint.one then { num; den }
      else { num = Bigint.div num g2; den = Bigint.div den g2 }
    end
  end

let sub a b = add a (neg b)

let mul a b =
  if Bigint.is_zero a.num || Bigint.is_zero b.num then zero
  else if Bigint.equal a.den Bigint.one && Bigint.equal b.den Bigint.one then
    { num = Bigint.mul a.num b.num; den = Bigint.one }
  else begin
    (* Cross-reduce before multiplying: with canonical operands,
       gcd(a.num·b.num, a.den·b.den) = gcd(a.num, b.den) · gcd(b.num, a.den),
       so the product below is born canonical and the gcds run on the
       small pre-product operands. *)
    let g1 = Bigint.gcd a.num b.den and g2 = Bigint.gcd b.num a.den in
    let n1 = if Bigint.equal g1 Bigint.one then a.num else Bigint.div a.num g1 in
    let n2 = if Bigint.equal g2 Bigint.one then b.num else Bigint.div b.num g2 in
    let d1 = if Bigint.equal g2 Bigint.one then a.den else Bigint.div a.den g2 in
    let d2 = if Bigint.equal g1 Bigint.one then b.den else Bigint.div b.den g1 in
    { num = Bigint.mul n1 n2; den = Bigint.mul d1 d2 }
  end

let div a b = mul a (inv b)
let mul_int a i = mul a (of_int i)

let floor t = fst (Bigint.ediv_rem t.num t.den)

let ceil t =
  let q, r = Bigint.ediv_rem t.num t.den in
  if Bigint.is_zero r then q else Bigint.succ q

let pow t n =
  if n >= 0 then { num = Bigint.pow t.num n; den = Bigint.pow t.den n }
  else inv { num = Bigint.pow t.num (-n); den = Bigint.pow t.den (-n) }

let to_string t =
  if is_integer t then Bigint.to_string t.num
  else Bigint.to_string t.num ^ "/" ^ Bigint.to_string t.den

let pp fmt t = Format.pp_print_string fmt (to_string t)

let of_string s =
  match String.index_opt s '/' with
  | Some i ->
      let num = Bigint.of_string (String.sub s 0 i) in
      let den = Bigint.of_string (String.sub s (i + 1) (String.length s - i - 1)) in
      canonical num den
  | None -> (
      match String.index_opt s '.' with
      | None -> of_bigint (Bigint.of_string s)
      | Some i ->
          let int_part = String.sub s 0 i in
          let frac_part = String.sub s (i + 1) (String.length s - i - 1) in
          let negative = String.length int_part > 0 && int_part.[0] = '-' in
          let digits = int_part ^ frac_part in
          let digits = if digits = "" || digits = "-" || digits = "+" then digits ^ "0" else digits in
          let num = Bigint.of_string digits in
          let den = Bigint.pow (Bigint.of_int 10) (String.length frac_part) in
          let q = canonical num den in
          if negative && Bigint.sign q.num > 0 then neg q else q)

module Infix = struct
  let ( + ) = add
  let ( - ) = sub
  let ( * ) = mul
  let ( / ) = div
  let ( ~- ) = neg
  let ( = ) = equal
  let ( < ) a b = compare a b < 0
  let ( <= ) a b = compare a b <= 0
  let ( > ) a b = compare a b > 0
  let ( >= ) a b = compare a b >= 0
end
