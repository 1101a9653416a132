module Json = Scdb_json.Json

type t = {
  command : string;
  args : (string * string) list;
  seed : int;
  samples : float array list;
  draws : int option;
  telemetry : Json.t option;
  log_tail : Json.t list;
}

let schema = "spatialdb-flightrec/1"
let arg t k = List.assoc_opt k t.args

(* Samples are stored as hex-float strings ("0x1.8p-1"): JSON numbers
   round-trip through decimal printers, hex floats are bit-exact by
   construction. *)
let hex_of_float f =
  if Float.is_nan f then "nan"
  else if f = Float.infinity then "inf"
  else if f = Float.neg_infinity then "-inf"
  else Printf.sprintf "%h" f

let float_of_hex s =
  match s with
  | "nan" -> Some Float.nan
  | "inf" -> Some Float.infinity
  | "-inf" -> Some Float.neg_infinity
  | _ -> float_of_string_opt s

let to_json t =
  (* A run has one generator; it is written as a one-node lineage so
     the record format stays [spatialdb-flightrec/1]. *)
  let node draws =
    Json.Obj
      [
        ("id", Json.Int 0);
        ("parent", Json.Int (-1));
        ("op", Json.Str "create");
        ("draws", Json.Int draws);
      ]
  in
  Json.to_string
    (Json.Obj
       [
         ("schema", Json.Str schema);
         ("command", Json.Str t.command);
         ("args", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) t.args));
         ("seed", Json.Int t.seed);
         ( "samples",
           Json.Arr
             (List.map (fun p -> Json.strs (List.map hex_of_float (Array.to_list p))) t.samples)
         );
         ("rng", Json.Arr (Option.to_list (Option.map node t.draws)));
         ("telemetry", Json.opt Fun.id t.telemetry);
         ("log_tail", Json.Arr t.log_tail);
       ])

let decode doc =
  let coord = function
    | Json.Str h -> (
        match float_of_hex h with Some v -> v | None -> Json.fail "malformed hex float %S" h)
    | v -> Json.num v
  in
  Json.schema schema doc;
  {
    command = Json.field "command" Json.str doc;
    args = Json.field "args" (Json.obj Json.str) doc;
    seed = Json.field "seed" Json.int doc;
    samples = Json.field "samples" (Json.list (fun r -> Array.of_list (Json.list coord r))) doc;
    draws =
      (match Json.field "rng" (Json.list (Json.field "draws" Json.int)) doc with
      | [] -> None
      | ds -> Some (List.fold_left ( + ) 0 ds));
    telemetry = Json.field_opt "telemetry" Fun.id doc;
    log_tail = Option.value ~default:[] (Json.field_opt "log_tail" (Json.list Fun.id) doc);
  }

let of_json s = Json.catch (fun () -> decode (Json.parse s))

let write path t =
  let oc = open_out path in
  output_string oc (to_json t);
  close_out oc

let read path = Json.of_file path decode

let compare_samples ~recorded ~replayed =
  let bits = Int64.bits_of_float in
  let rec go i rec_rest rep_rest =
    match (rec_rest, rep_rest) with
    | [], [] -> Ok i
    | [], _ :: _ -> Error (Printf.sprintf "replay produced extra samples after index %d" (i - 1))
    | _ :: _, [] ->
        Error
          (Printf.sprintf "replay stream ended early: recorded %d more sample(s) after index %d"
             (List.length rec_rest) (i - 1))
    | a :: rec_rest, b :: rep_rest ->
        if Array.length a <> Array.length b then
          Error
            (Printf.sprintf "sample %d: dimension mismatch (recorded %d, replayed %d)" i
               (Array.length a) (Array.length b))
        else begin
          let divergent = ref (-1) in
          (try
             for j = 0 to Array.length a - 1 do
               if bits a.(j) <> bits b.(j) then begin
                 divergent := j;
                 raise Exit
               end
             done
           with Exit -> ());
          if !divergent >= 0 then begin
            let j = !divergent in
            Error
              (Printf.sprintf
                 "first divergence at sample %d, coordinate %d: recorded %s (%.17g), replayed %s \
                  (%.17g)"
                 i j (hex_of_float a.(j)) a.(j) (hex_of_float b.(j)) b.(j))
          end
          else go (i + 1) rec_rest rep_rest
        end
  in
  go 0 recorded replayed
