(* Validator for observability artifacts produced by `make ci`:

   Usage: validate_logs [--log FILE] [--metrics FILE]

   --log FILE      a JSON-lines structured log (schema spatialdb-log/1):
                   every line must parse, carry the right schema, a known
                   level, a non-empty event name, an integer span id, a
                   strictly increasing seq and a non-decreasing finite ts;
                   field values must be finite when numeric.
   --metrics FILE  a Prometheus text-format snapshot: every sample line
                   must follow a # TYPE declaration for its metric family,
                   names must match [a-zA-Z_:][a-zA-Z0-9_:]*, values must
                   parse as finite non-NaN numbers, and counter samples
                   (family declared `counter`) must be non-negative.

   Exits 1 with a message on the first violation. *)

module J = Scdb_json.Json

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("validate_logs: " ^ m); exit 1) fmt

(* ---------------- structured log ---------------- *)

let levels = [ "debug"; "info"; "warn"; "error" ]

let check_log path =
  let events =
    List.filter
      (fun l -> String.trim l <> "")
      (In_channel.with_open_text path In_channel.input_lines)
  in
  if events = [] then fail "%s: no log events" path;
  let last_seq = ref (-1) in
  let last_ts = ref neg_infinity in
  let event doc =
    J.schema "spatialdb-log/1" doc;
    let level = J.field "level" J.str doc in
    if not (List.mem level levels) then J.fail "unknown level %S" level;
    if J.field "event" J.str doc = "" then J.fail "empty event name";
    ignore (J.field "span" J.int doc);
    let seq = J.field "seq" J.int doc in
    if seq <= !last_seq then J.fail "seq not strictly increasing (%d after %d)" seq !last_seq;
    last_seq := seq;
    let ts = J.field "ts" J.num doc in
    if ts < !last_ts then J.fail "ts went backwards (%g after %g)" ts !last_ts;
    last_ts := ts;
    let finite = function J.Num _ as v -> ignore (J.num v) | _ -> () in
    ignore (J.field "fields" (J.obj finite) doc)
  in
  List.iteri
    (fun i line ->
      match J.catch (fun () -> event (J.parse line)) with
      | Ok () -> ()
      | Error m -> fail "%s:%d: %s" path (i + 1) m)
    events;
  Printf.printf "validate_logs: %s OK (%d events)\n" path (List.length events)

(* ---------------- Prometheus snapshot ---------------- *)

let is_name_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':'
let is_name_char c = is_name_start c || (c >= '0' && c <= '9')

let valid_name s =
  s <> ""
  && is_name_start s.[0]
  && String.for_all is_name_char s

(* Strip a {label="..."} block if present; quantile labels on summaries. *)
let split_sample line =
  match String.index_opt line '{' with
  | Some i -> (
      match String.rindex_opt line '}' with
      | Some j when j > i ->
          Some (String.sub line 0 i, String.trim (String.sub line (j + 1) (String.length line - j - 1)))
      | _ -> None)
  | None -> (
      match String.index_opt line ' ' with
      | Some i ->
          Some (String.sub line 0 i, String.trim (String.sub line i (String.length line - i)))
      | None -> None)

let check_metrics path =
  (* metric family -> declared type *)
  let types = Hashtbl.create 16 in
  let samples = ref 0 in
  List.iteri
    (fun i line ->
      let line = String.trim line in
      let lineno = i + 1 in
      if line = "" then ()
      else if String.length line >= 7 && String.sub line 0 7 = "# TYPE " then begin
        match String.split_on_char ' ' (String.sub line 7 (String.length line - 7)) with
        | [ name; ty ] ->
            if not (valid_name name) then fail "%s:%d: invalid metric name %S" path lineno name;
            if not (List.mem ty [ "counter"; "gauge"; "summary"; "histogram"; "untyped" ]) then
              fail "%s:%d: invalid metric type %S" path lineno ty;
            Hashtbl.replace types name ty
        | _ -> fail "%s:%d: malformed TYPE line" path lineno
      end
      else if String.length line >= 1 && line.[0] = '#' then ()
      else begin
        match split_sample line with
        | None -> fail "%s:%d: malformed sample line %S" path lineno line
        | Some (name, value_s) ->
            if not (valid_name name) then fail "%s:%d: invalid metric name %S" path lineno name;
            (* A sample belongs to the family of its TYPE declaration;
               summary samples may carry _sum/_count suffixes. *)
            let family =
              if Hashtbl.mem types name then Some name
              else
                let strip suffix =
                  let n = String.length name and k = String.length suffix in
                  if n > k && String.sub name (n - k) k = suffix then
                    Some (String.sub name 0 (n - k))
                  else None
                in
                match strip "_sum" with
                | Some f when Hashtbl.mem types f -> Some f
                | _ -> (
                    match strip "_count" with
                    | Some f when Hashtbl.mem types f -> Some f
                    | _ -> None)
            in
            let family =
              match family with
              | Some f -> f
              | None -> fail "%s:%d: sample %S has no preceding TYPE declaration" path lineno name
            in
            let v =
              match float_of_string_opt value_s with
              | Some v -> v
              | None -> fail "%s:%d: value %S does not parse" path lineno value_s
            in
            if Float.is_nan v then fail "%s:%d: %s is NaN" path lineno name;
            if not (Float.is_finite v) then fail "%s:%d: %s is not finite" path lineno name;
            if Hashtbl.find types family = "counter" && v < 0.0 then
              fail "%s:%d: counter %s is negative (%g)" path lineno name v;
            incr samples
      end)
    (In_channel.with_open_text path In_channel.input_lines);
  if !samples = 0 then fail "%s: no metric samples" path;
  Printf.printf "validate_logs: %s OK (%d samples)\n" path !samples

let () =
  let rec go = function
    | [] -> ()
    | "--log" :: file :: rest ->
        check_log file;
        go rest
    | "--metrics" :: file :: rest ->
        check_metrics file;
        go rest
    | a :: _ -> fail "usage: validate_logs [--log FILE] [--metrics FILE] (got %S)" a
  in
  let args = List.tl (Array.to_list Sys.argv) in
  if args = [] then fail "usage: validate_logs [--log FILE] [--metrics FILE]";
  try go args with Sys_error m -> fail "%s" m
