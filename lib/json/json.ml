type t =
  | Null
  | Bool of bool
  | Int of int
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Reader                                                              *)
(* ------------------------------------------------------------------ *)

exception Parse_error of string

type state = { s : string; mutable pos : int }

let parse_fail st msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg st.pos))
let peek st = if st.pos < String.length st.s then Some st.s.[st.pos] else None

let skip_ws st =
  while
    st.pos < String.length st.s
    && match st.s.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    st.pos <- st.pos + 1
  done

let expect st c =
  match peek st with
  | Some x when x = c -> st.pos <- st.pos + 1
  | _ -> parse_fail st (Printf.sprintf "expected '%c'" c)

let parse_literal st lit v =
  let n = String.length lit in
  if st.pos + n <= String.length st.s && String.sub st.s st.pos n = lit then begin
    st.pos <- st.pos + n;
    v
  end
  else parse_fail st ("expected " ^ lit)

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    if st.pos >= String.length st.s then parse_fail st "unterminated string";
    let c = st.s.[st.pos] in
    st.pos <- st.pos + 1;
    if c = '"' then Buffer.contents buf
    else if c = '\\' then begin
      if st.pos >= String.length st.s then parse_fail st "unterminated escape";
      let e = st.s.[st.pos] in
      st.pos <- st.pos + 1;
      (match e with
      | '"' -> Buffer.add_char buf '"'
      | '\\' -> Buffer.add_char buf '\\'
      | '/' -> Buffer.add_char buf '/'
      | 'b' -> Buffer.add_char buf '\b'
      | 'f' -> Buffer.add_char buf '\012'
      | 'n' -> Buffer.add_char buf '\n'
      | 'r' -> Buffer.add_char buf '\r'
      | 't' -> Buffer.add_char buf '\t'
      | 'u' ->
          if st.pos + 4 > String.length st.s then parse_fail st "truncated \\u escape";
          let hex = String.sub st.s st.pos 4 in
          st.pos <- st.pos + 4;
          let code =
            try int_of_string ("0x" ^ hex) with _ -> parse_fail st "bad \\u escape"
          in
          (* UTF-8 encode the BMP code point; surrogate pairs are beyond
             what our own printers produce. *)
          if code < 0x80 then Buffer.add_char buf (Char.chr code)
          else if code < 0x800 then begin
            Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
            Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
          end
          else begin
            Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
            Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
            Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
          end
      | _ -> parse_fail st "bad escape");
      go ()
    end
    else begin
      Buffer.add_char buf c;
      go ()
    end
  in
  go ()

let parse_number st =
  let start = st.pos in
  let is_num c =
    match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
  in
  while st.pos < String.length st.s && is_num st.s.[st.pos] do
    st.pos <- st.pos + 1
  done;
  if st.pos = start then parse_fail st "expected number";
  let lit = String.sub st.s start (st.pos - start) in
  let integral = not (String.exists (function '.' | 'e' | 'E' -> true | _ -> false) lit) in
  match (if integral then int_of_string_opt lit else None) with
  | Some i -> Int i
  | None -> (
      match float_of_string_opt lit with
      | Some v -> Num v
      | None -> parse_fail st "malformed number")

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> parse_fail st "unexpected end of input"
  | Some '"' -> Str (parse_string st)
  | Some '{' ->
      expect st '{';
      skip_ws st;
      if peek st = Some '}' then begin
        expect st '}';
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws st;
          let k = parse_string st in
          skip_ws st;
          expect st ':';
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' ->
              expect st ',';
              members ((k, v) :: acc)
          | Some '}' ->
              expect st '}';
              Obj (List.rev ((k, v) :: acc))
          | _ -> parse_fail st "expected ',' or '}'"
        in
        members []
      end
  | Some '[' ->
      expect st '[';
      skip_ws st;
      if peek st = Some ']' then begin
        expect st ']';
        Arr []
      end
      else begin
        let rec elements acc =
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' ->
              expect st ',';
              elements (v :: acc)
          | Some ']' ->
              expect st ']';
              Arr (List.rev (v :: acc))
          | _ -> parse_fail st "expected ',' or ']'"
        in
        elements []
      end
  | Some 't' -> parse_literal st "true" (Bool true)
  | Some 'f' -> parse_literal st "false" (Bool false)
  | Some 'n' -> parse_literal st "null" Null
  | Some _ -> parse_number st

let parse s =
  let st = { s; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  if st.pos <> String.length s then parse_fail st "trailing garbage";
  v

(* ------------------------------------------------------------------ *)
(* Printers                                                            *)
(* ------------------------------------------------------------------ *)

let add_escaped buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* Below 1e17 an integral double prints exactly under %.1f; %.17g
   would print bare digits there, which read back as an [Int]. *)
let number v =
  if not (Float.is_finite v) then "null"
  else if Float.is_integer v && Float.abs v < 1e17 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let rec add_inline buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Num v -> Buffer.add_string buf (number v)
  | Str s -> add_escaped buf s
  | Arr xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_string buf ", ";
          add_inline buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ", ";
          add_escaped buf k;
          Buffer.add_string buf ": ";
          add_inline buf v)
        kvs;
      Buffer.add_char buf '}'

let to_line v =
  let buf = Buffer.create 256 in
  add_inline buf v;
  Buffer.contents buf

let is_container = function Arr _ | Obj _ -> true | _ -> false

let rec add_pretty buf indent v =
  let block opening closing items add_item =
    let pad = String.make (indent + 2) ' ' in
    Buffer.add_string buf opening;
    List.iteri
      (fun i x ->
        Buffer.add_string buf (if i = 0 then "\n" else ",\n");
        Buffer.add_string buf pad;
        add_item x)
      items;
    Buffer.add_char buf '\n';
    Buffer.add_string buf (String.make indent ' ');
    Buffer.add_string buf closing
  in
  match v with
  | Obj (_ :: _ as kvs) ->
      block "{" "}" kvs (fun (k, x) ->
          add_escaped buf k;
          Buffer.add_string buf ": ";
          add_pretty buf (indent + 2) x)
  | Arr xs when List.exists is_container xs -> block "[" "]" xs (add_inline buf)
  | v -> add_inline buf v

let to_string v =
  let buf = Buffer.create 1024 in
  add_pretty buf 0 v;
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Building                                                            *)
(* ------------------------------------------------------------------ *)

let clamp v =
  Num
    (if Float.is_finite v then v
     else if v > 0.0 then 1e308
     else if v < 0.0 then -1e308
     else 0.0)

let opt f = function None -> Null | Some x -> f x
let nums l = Arr (List.map (fun v -> Num v) l)
let strs l = Arr (List.map (fun s -> Str s) l)

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

exception Type_error of string * string

let fail fmt = Printf.ksprintf (fun m -> raise (Type_error ("", m))) fmt
let at seg f x = try f x with Type_error (p, m) -> raise (Type_error (seg ^ p, m))

let members = function Obj kvs -> kvs | _ -> fail "expected an object"

let field k f v =
  match List.assoc_opt k (members v) with
  | Some x -> at ("." ^ k) f x
  | None -> fail "missing field %S" k

let field_opt k f v =
  match List.assoc_opt k (members v) with
  | None | Some Null -> None
  | Some x -> Some (at ("." ^ k) f x)

let num = function
  | Int i -> float_of_int i
  | Num v when Float.is_finite v -> v
  | Num _ -> fail "expected a finite number"
  | _ -> fail "expected a number"

let int = function
  | Int i -> i
  | Num v when Float.is_integer v && Float.abs v < 0x1p62 -> int_of_float v
  | _ -> fail "expected an integer"

let str = function Str s -> s | _ -> fail "expected a string"
let bool = function Bool b -> b | _ -> fail "expected a boolean"
let nullable f = function Null -> None | v -> Some (f v)

let list f = function
  | Arr xs -> List.mapi (fun i x -> at (Printf.sprintf "[%d]" i) f x) xs
  | _ -> fail "expected an array"

let obj f v = List.map (fun (k, x) -> (k, at ("." ^ k) f x)) (members v)

let schema name =
  field "schema" (fun v ->
      let s = str v in
      if s <> name then fail "unexpected schema %S (want %S)" s name)

let catch f =
  match f () with
  | v -> Ok v
  | exception Type_error ("", m) -> Error m
  | exception Type_error (p, m) -> Error (Printf.sprintf "$%s: %s" p m)
  | exception Parse_error m -> Error ("invalid JSON: " ^ m)

let of_file path f =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error m -> Error m
  | s -> Result.map_error (fun m -> path ^ ": " ^ m) (catch (fun () -> f (parse s)))
