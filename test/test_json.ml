(* Tests for the JSON substrate: reader/printer round trips, the fixed
   layout (pinned on the committed audit ledger), the one number and
   string spelling, and path-tagged accessor errors. *)

module J = Scdb_json.Json

let t name f = Alcotest.test_case name `Quick f

let qt ?(count = 500) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

(* ---------------- generators ---------------- *)

let gen_string =
  QCheck.Gen.(
    oneof
      [
        string_size ~gen:char (0 -- 12);
        oneofl
          [
            "";
            "\"quoted\"";
            "back\\slash";
            "tab\tnl\ncr\r";
            "\001\031\127";
            "h\xc3\xa9llo";
            "\xe2\x88\x80x \xe2\x88\x83y";
            "\xf0\x9f\x98\x80";
          ];
      ])

let gen_int = QCheck.Gen.(oneof [ int; small_signed_int; oneofl [ max_int; min_int; 0; -1 ] ])

let gen_float =
  QCheck.Gen.(
    oneof
      [
        map (fun f -> if Float.is_finite f then f else 0.5) float;
        map Int64.float_of_bits int64 |> map (fun f -> if Float.is_finite f then f else -3.0);
        oneofl
          [ 0.0; -0.0; 0.1; 3.0; -2.0; 1e16; 1e17; 123456789012345678.0; Float.max_float;
            Float.min_float; 5e-324; 1e300 ];
      ])

let gen_value =
  QCheck.Gen.(
    sized
    @@ fix (fun self n ->
           let scalar =
             frequency
               [
                 (1, return J.Null);
                 (1, map (fun b -> J.Bool b) bool);
                 (2, map (fun i -> J.Int i) gen_int);
                 (3, map (fun f -> J.Num f) gen_float);
                 (2, map (fun s -> J.Str s) gen_string);
               ]
           in
           if n <= 0 then scalar
           else
             frequency
               [
                 (2, scalar);
                 (1, map (fun l -> J.Arr l) (list_size (0 -- 4) (self (n / 3))));
                 ( 1,
                   map (fun l -> J.Obj l) (list_size (0 -- 4) (pair gen_string (self (n / 3)))) );
               ]))

let arb_value = QCheck.make ~print:J.to_line gen_value

(* Structural equality with floats compared bit for bit. *)
let rec equal a b =
  match (a, b) with
  | J.Num x, J.Num y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | J.Arr xs, J.Arr ys -> List.length xs = List.length ys && List.for_all2 equal xs ys
  | J.Obj xs, J.Obj ys ->
      List.length xs = List.length ys
      && List.for_all2 (fun (k, x) (l, y) -> k = l && equal x y) xs ys
  | a, b -> a = b

let roundtrip_tests =
  [
    qt "parse (to_string v) = v" arb_value (fun v -> equal (J.parse (J.to_string v)) v);
    qt "parse (to_line v) = v" arb_value (fun v -> equal (J.parse (J.to_line v)) v);
    qt "to_line is one line" arb_value (fun v -> not (String.contains (J.to_line v) '\n'));
  ]

(* ---------------- printing ---------------- *)

let print_tests =
  [
    t "string escape handles quotes and control chars" (fun () ->
        let s = "weird \"name\"\n\t\001\\" in
        Alcotest.(check string) "spelling" {|"weird \"name\"\n\t\u0001\\"|} (J.to_line (J.Str s));
        Alcotest.(check bool) "round-trips" true (J.parse (J.to_line (J.Str s)) = J.Str s));
    t "one number spelling" (fun () ->
        let spell v = J.to_line v in
        Alcotest.(check (list string))
          "spellings"
          [ "3"; "4611686018427387903"; "3.0"; "-0.0"; "0.10000000000000001"; "1e+17";
            "null"; "null"; "null" ]
          (List.map spell
             [ J.Int 3; J.Int max_int; J.Num 3.0; J.Num (-0.0); J.Num 0.1; J.Num 1e17;
               J.Num Float.infinity; J.Num Float.neg_infinity; J.Num Float.nan ]));
    t "clamp keeps documents free of null numbers" (fun () ->
        Alcotest.(check (list string))
          "clamped" [ "1e+308"; "-1e+308"; "0.0"; "2.5" ]
          (List.map
             (fun v -> J.to_line (J.clamp v))
             [ Float.infinity; Float.neg_infinity; Float.nan; 2.5 ]));
    t "layout: objects expand, scalar arrays stay inline" (fun () ->
        let doc =
          J.Obj
            [
              ("a", J.Obj [ ("b", J.nums [ 1.0; 2.5 ]); ("c", J.Obj []) ]);
              ("rows", J.Arr [ J.Obj [ ("id", J.Int 0); ("tags", J.strs [ "x" ]) ]; J.Arr [] ]);
              ("none", J.Arr []);
            ]
        in
        Alcotest.(check string)
          "document"
          {|{
  "a": {
    "b": [1.0, 2.5],
    "c": {}
  },
  "rows": [
    {"id": 0, "tags": ["x"]},
    []
  ],
  "none": []
}
|}
          (J.to_string doc));
    t "AUDIT_1.json reprints byte for byte" (fun () ->
        let text = In_channel.with_open_bin "../AUDIT_1.json" In_channel.input_all in
        Alcotest.(check string) "ledger" text (J.to_string (J.parse text)));
  ]

(* ---------------- reading ---------------- *)

let read_tests =
  [
    t "integer literals read as Int" (fun () ->
        Alcotest.(check bool)
          "values" true
          (J.parse "[1, -2, 1.0, 1e2, 99999999999999999999]"
          = J.Arr [ J.Int 1; J.Int (-2); J.Num 1.0; J.Num 100.0; J.Num 1e20 ]));
    t "BMP escapes decode to UTF-8" (fun () ->
        Alcotest.(check bool)
          "decoded" true
          (J.parse {|"\u0041\u00e9\u2200\/"|} = J.Str "A\xc3\xa9\xe2\x88\x80/"));
    t "accessors name the path of a bad value" (fun () ->
        let doc = J.parse {|{"a": [{"b": 1}, {"b": "x"}], "n": 2.5, "schema": "s/2"}|} in
        let read f = J.catch (fun () -> f doc) in
        Alcotest.(check (result (list (float 0.0)) string))
          "type" (Error "$.a[1].b: expected a number")
          (read (J.field "a" (J.list (J.field "b" J.num))));
        Alcotest.(check (result (list int) string))
          "missing" (Error {|$.a[0]: missing field "c"|})
          (read (J.field "a" (J.list (J.field "c" J.int))));
        Alcotest.(check (result int string)) "integral" (Error "$.n: expected an integer")
          (read (J.field "n" J.int));
        Alcotest.(check (result unit string))
          "schema" (Error {|$.schema: unexpected schema "s/2" (want "s/1")|})
          (read (J.schema "s/1"));
        Alcotest.(check (result (option int) string))
          "absent optional" (Ok None) (read (J.field_opt "z" J.int)));
    t "malformed text is a parse error" (fun () ->
        List.iter
          (fun text ->
            match J.parse text with
            | _ -> Alcotest.failf "accepted %S" text
            | exception J.Parse_error _ -> ())
          [ "inf"; "[1, nan]"; "{\"a\" 1}"; "[1,]"; "\"open"; "{} x" ]);
  ]

let suites =
  [ ("json.roundtrip", roundtrip_tests); ("json.print", print_tests); ("json.read", read_tests) ]
