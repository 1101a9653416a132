(* Unit and property tests for exact rationals. *)

module Q = Rational

let t name f = Alcotest.test_case name `Quick f

let qt ?(count = 300) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

let arbitrary_q =
  let gen =
    QCheck.Gen.(
      let* n = -10_000 -- 10_000 in
      let* d = 1 -- 10_000 in
      pure (Q.of_ints n d))
  in
  QCheck.make ~print:Q.to_string gen

let pair = QCheck.pair arbitrary_q arbitrary_q
let triple = QCheck.triple arbitrary_q arbitrary_q arbitrary_q

let unit_tests =
  [
    t "canonical form" (fun () ->
        Alcotest.(check string) "4/8" "1/2" (Q.to_string (Q.of_ints 4 8));
        Alcotest.(check string) "neg den" "-1/2" (Q.to_string (Q.of_ints 1 (-2)));
        Alcotest.(check string) "zero" "0" (Q.to_string (Q.of_ints 0 17)));
    t "of_string forms" (fun () ->
        Alcotest.(check string) "int" "42" (Q.to_string (Q.of_string "42"));
        Alcotest.(check string) "frac" "-3/7" (Q.to_string (Q.of_string "-3/7"));
        Alcotest.(check string) "decimal" "-13/4" (Q.to_string (Q.of_string "-3.25"));
        Alcotest.(check string) "decimal small" "1/100" (Q.to_string (Q.of_string "0.01")));
    t "of_float exact dyadic" (fun () ->
        Alcotest.(check string) "0.5" "1/2" (Q.to_string (Q.of_float 0.5));
        Alcotest.(check string) "0.75" "3/4" (Q.to_string (Q.of_float 0.75));
        Alcotest.(check string) "-42" "-42" (Q.to_string (Q.of_float (-42.0))));
    t "of_float rejects non-finite" (fun () ->
        List.iter
          (fun f ->
            try
              ignore (Q.of_float f);
              Alcotest.fail "expected Invalid_argument"
            with Invalid_argument _ -> ())
          [ Float.nan; Float.infinity; Float.neg_infinity ]);
    t "floor and ceil" (fun () ->
        Alcotest.(check string) "floor 7/2" "3" (Bigint.to_string (Q.floor (Q.of_ints 7 2)));
        Alcotest.(check string) "ceil 7/2" "4" (Bigint.to_string (Q.ceil (Q.of_ints 7 2)));
        Alcotest.(check string) "floor -7/2" "-4" (Bigint.to_string (Q.floor (Q.of_ints (-7) 2)));
        Alcotest.(check string) "ceil -7/2" "-3" (Bigint.to_string (Q.ceil (Q.of_ints (-7) 2)));
        Alcotest.(check string) "floor 3" "3" (Bigint.to_string (Q.floor (Q.of_int 3))));
    t "pow" (fun () ->
        Alcotest.(check string) "(2/3)^3" "8/27" (Q.to_string (Q.pow (Q.of_ints 2 3) 3));
        Alcotest.(check string) "(2/3)^-2" "9/4" (Q.to_string (Q.pow (Q.of_ints 2 3) (-2))));
    t "inv zero raises" (fun () ->
        Alcotest.check_raises "inv 0" Division_by_zero (fun () -> ignore (Q.inv Q.zero)));
    t "division by zero raises" (fun () ->
        Alcotest.check_raises "x/0" Division_by_zero (fun () -> ignore (Q.div Q.one Q.zero)));
  ]

let property_tests =
  [
    qt "field: associativity of add" triple (fun (a, b, c) ->
        Q.equal (Q.add a (Q.add b c)) (Q.add (Q.add a b) c));
    qt "field: distributivity" triple (fun (a, b, c) ->
        Q.equal (Q.mul a (Q.add b c)) (Q.add (Q.mul a b) (Q.mul a c)));
    qt "field: mul inverse" arbitrary_q (fun a ->
        QCheck.assume (not (Q.is_zero a));
        Q.equal Q.one (Q.mul a (Q.inv a)));
    qt "sub/add inverse" pair (fun (a, b) -> Q.equal a (Q.add (Q.sub a b) b));
    qt "compare consistent with to_float" pair (fun (a, b) ->
        let c = Q.compare a b in
        let fc = Float.compare (Q.to_float a) (Q.to_float b) in
        c = 0 || fc = 0 || (c > 0) = (fc > 0));
    qt "of_float/to_float round trip" arbitrary_q (fun a ->
        (* to_float is exact for small rationals only up to rounding; the
           dyadic round trip through of_float must reproduce the float. *)
        let f = Q.to_float a in
        Float.equal f (Q.to_float (Q.of_float f)));
    qt "string round trip" arbitrary_q (fun a -> Q.equal a (Q.of_string (Q.to_string a)));
    qt "floor <= x < floor+1" arbitrary_q (fun a ->
        let fl = Q.of_bigint (Q.floor a) in
        Q.compare fl a <= 0 && Q.compare a (Q.add fl Q.one) < 0);
    qt "canonical: gcd(num,den)=1" pair (fun (a, b) ->
        let s = Q.add a b in
        Bigint.equal (Bigint.gcd s.Q.num s.Q.den) Bigint.one || Q.is_zero s);
  ]


let interval_tests =
  let module I = Interval in
  [
    t "construction and containment" (fun () ->
        let iv = I.make 1.0 2.0 in
        Alcotest.(check bool) "in" true (I.contains iv 1.5);
        Alcotest.(check bool) "out" false (I.contains iv 2.5);
        (try
           ignore (I.make 2.0 1.0);
           Alcotest.fail "expected Invalid_argument"
         with Invalid_argument _ -> ()));
    t "arithmetic encloses true results" (fun () ->
        let a = I.point 0.1 and b = I.point 0.2 in
        Alcotest.(check bool) "sum" true (I.contains (I.add a b) (0.1 +. 0.2));
        Alcotest.(check bool) "product" true (I.contains (I.mul a b) (0.1 *. 0.2));
        Alcotest.(check bool) "difference" true (I.contains (I.sub b a) 0.1));
    t "mul handles sign combinations" (fun () ->
        let m = I.mul (I.make (-2.0) 3.0) (I.make (-1.0) 4.0) in
        Alcotest.(check bool) "lo" true (m.I.lo <= -8.0);
        Alcotest.(check bool) "hi" true (m.I.hi >= 12.0));
    t "certified sign" (fun () ->
        Alcotest.(check bool) "neg" true (I.sign (I.make (-2.0) (-1.0)) = `Negative);
        Alcotest.(check bool) "pos" true (I.sign (I.make 1.0 2.0) = `Positive);
        Alcotest.(check bool) "zero" true (I.sign (I.make (-1.0) 1.0) = `Zero_in));
  ]

(* The denominator-one / shared-denominator / coprime fast paths in
   [add] and the cross-gcd [mul] must be unobservable next to the
   textbook formulas, and [hash] must agree with [equal] regardless of
   whether a value's components were produced by the small-int or the
   limb [Bigint] path. *)

let naive_add a b =
  Q.make
    (Bigint.add (Bigint.mul a.Q.num b.Q.den) (Bigint.mul b.Q.num a.Q.den))
    (Bigint.mul a.Q.den b.Q.den)

let naive_mul a b = Q.make (Bigint.mul a.Q.num b.Q.num) (Bigint.mul a.Q.den b.Q.den)

let fastpath_tests =
  [
    qt "add matches naive cross-multiplication" pair (fun (a, b) ->
        Q.equal (Q.add a b) (naive_add a b));
    qt "mul matches naive formula" pair (fun (a, b) -> Q.equal (Q.mul a b) (naive_mul a b));
    qt "integer add shortcut" (QCheck.pair QCheck.small_signed_int QCheck.small_signed_int)
      (fun (x, y) -> Q.equal (Q.add (Q.of_int x) (Q.of_int y)) (Q.of_int (x + y)));
    qt "shared denominator add" (QCheck.triple QCheck.small_signed_int QCheck.small_signed_int QCheck.small_nat)
      (fun (x, y, d) ->
        let d = d + 1 in
        Q.equal (Q.add (Q.of_ints x d) (Q.of_ints y d)) (Q.of_ints (x + y) d));
    t "hash consistent with equal across bigint routes" (fun () ->
        (* The same rational assembled from Small components and from
           Big intermediates that cancel back down must collide. *)
        let big = Bigint.pow Bigint.two 120 in
        List.iter
          (fun (n, d) ->
            let direct = Q.of_ints n d in
            let blown =
              Q.make (Bigint.mul (Bigint.of_int n) big) (Bigint.mul (Bigint.of_int d) big)
            in
            Alcotest.(check bool) "equal" true (Q.equal direct blown);
            Alcotest.(check int) "hash" (Q.hash direct) (Q.hash blown))
          [ (0, 7); (1, 2); (-3, 4); (355, 113); (max_int, 2); (min_int + 1, 3) ]);
    qt "sum and difference cancel exactly" pair (fun (a, b) ->
        Q.equal a (Q.sub (Q.add a b) b));
  ]

(* Float conversions.  [of_float] builds the mantissa's Bigint directly;
   the reference below is the construction it replaced, through the
   mantissa's decimal string.  [to_float] keeps the plain quotient of
   the parts whenever both parts are finite floats. *)

let of_float_by_string f =
  if f = 0.0 then Q.zero
  else begin
    let mantissa, exponent = Float.frexp f in
    let num = Bigint.of_string (Int64.to_string (Int64.of_float (mantissa *. 9007199254740992.0))) in
    let e = exponent - 53 in
    if e >= 0 then Q.of_bigint (Bigint.shift_left num e)
    else Q.make num (Bigint.shift_left Bigint.one (-e))
  end

let arbitrary_finite_float =
  let special = [ 0.0; -0.0; 1.0; -1.0; 0.1; Float.max_float; -.Float.max_float;
                  Float.min_float; 4.9e-324; -4.9e-324; 2.2250738585072009e-308 ] in
  let gen =
    QCheck.Gen.(
      frequency
        [
          (1, oneofl special);
          (6, map Int64.float_of_bits ui64);
          (* subnormals: exponent field zero *)
          (2, map (fun b -> Int64.float_of_bits (Int64.logand b 0x800F_FFFF_FFFF_FFFFL)) ui64);
        ])
  in
  QCheck.make ~print:(Printf.sprintf "%h") (QCheck.Gen.map (fun f -> if Float.is_finite f then f else 1.5) gen)

(* A positive Bigint of at most [bits] bits, from random decimal digits
   kept below 2^bits. *)
let arbitrary_parts ~bits =
  let limit = Bigint.shift_left Bigint.one bits in
  let part =
    QCheck.Gen.(
      let* len = 1 -- 310 in
      let* digits = string_size ~gen:(char_range '0' '9') (return len) in
      let n = Bigint.rem (Bigint.of_string digits) limit in
      return (if Bigint.is_zero n then Bigint.one else n))
  in
  QCheck.make
    ~print:(fun (n, d) -> Bigint.to_string n ^ "/" ^ Bigint.to_string d)
    (QCheck.Gen.pair part part)

let pow10 k = Bigint.pow (Bigint.of_int 10) k
let pow2 k = Bigint.shift_left Bigint.one k

let conversion_tests =
  [
    qt ~count:2000 "of_float equals the decimal-string construction" arbitrary_finite_float
      (fun f -> Q.equal (Q.of_float f) (of_float_by_string f));
    t "of_float round-trips through to_float" (fun () ->
        List.iter
          (fun f -> Alcotest.(check (float 0.0)) (Printf.sprintf "%h" f) f (Q.to_float (Q.of_float f)))
          [ 0.1; -3.75; 1e300; -.Float.max_float; 4.9e-324; 1.0 /. 3.0 ]);
    qt ~count:500 "to_float keeps the plain quotient of parts below 2^1000"
      (arbitrary_parts ~bits:1000) (fun (n, d) ->
        let q = Q.make n d in
        Int64.equal
          (Int64.bits_of_float (Q.to_float q))
          (Int64.bits_of_float (Bigint.to_float q.Q.num /. Bigint.to_float q.Q.den)));
    t "to_float of parts beyond the float range" (fun () ->
        let one = Bigint.one in
        let third = Q.make (Bigint.succ (pow10 400)) (Bigint.mul (Bigint.of_int 3) (pow10 400)) in
        Alcotest.(check (float 1e-15)) "(10^400+1)/(3*10^400)" (1.0 /. 3.0) (Q.to_float third);
        Alcotest.(check (float 0.0)) "(2^1100+1)/(2^1099+1)" 2.0
          (Q.to_float (Q.make (Bigint.add (pow2 1100) one) (Bigint.add (pow2 1099) one)));
        let big = Q.to_float (Q.make (Bigint.add (pow2 1030) one) (Bigint.add (pow2 20) one)) in
        Alcotest.(check bool) "(2^1030+1)/(2^20+1) finite" true (Float.is_finite big);
        let expected = Float.ldexp (1.0 /. (1.0 +. Float.ldexp 1.0 (-20))) 1010 in
        Alcotest.(check bool) "(2^1030+1)/(2^20+1) ~ 2^1010/(1+2^-20)" true
          (Float.abs (big -. expected) <= 1e-15 *. expected);
        Alcotest.(check (float 0.0)) "10^400 overflows" Float.infinity
          (Q.to_float (Q.of_bigint (pow10 400)));
        Alcotest.(check (float 0.0)) "10^-400 underflows" 0.0
          (Q.to_float (Q.make one (pow10 400))));
  ]

let suites =
  [
    ("rational", unit_tests @ property_tests @ fastpath_tests);
    ("rational.float", conversion_tests);
    ("interval", interval_tests);
  ]
