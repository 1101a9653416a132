(* Validator for observability artifacts produced by `make ci`:

   Usage: validate_logs [--log FILE] [--compare-counters A B]

   --log FILE             a JSON-lines structured log (schema
                          spatialdb-log/1): every line must parse, carry
                          the right schema, a known level, a non-empty
                          event name, an integer span id, a strictly
                          increasing seq and a non-decreasing finite ts;
                          field values must be finite when numeric.
   --compare-counters A B two telemetry dump files (as written by
                          --stats-out): their "counters" objects must
                          be exactly equal.  `make ci` feeds it the
                          merged dumps of a 2-domain and a sequential
                          run of the same jobs, the differential check
                          that context merging loses nothing.

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

(* ---------------- counter comparison ---------------- *)

let counters_of path =
  match J.of_file path (J.field "counters" (J.obj J.int)) with
  | Ok counters -> List.sort compare counters
  | Error m -> fail "%s" m

let compare_counters a b =
  let ca = counters_of a and cb = counters_of b in
  let tbl = Hashtbl.create 64 in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) cb;
  List.iter
    (fun (k, v) ->
      match Hashtbl.find_opt tbl k with
      | None -> fail "counter %s present in %s but missing from %s" k a b
      | Some w ->
          if v <> w then fail "counter %s differs: %s has %d, %s has %d" k a v b w;
          Hashtbl.remove tbl k)
    ca;
  Hashtbl.iter (fun k _ -> fail "counter %s present in %s but missing from %s" k b a) tbl;
  Printf.printf "validate_logs: counters of %s and %s are identical (%d counter(s))\n" a b
    (List.length ca)

let () =
  let usage = "usage: validate_logs [--log FILE] [--compare-counters A B]" in
  let rec go = function
    | [] -> ()
    | "--log" :: file :: rest ->
        check_log file;
        go rest
    | "--compare-counters" :: a :: b :: rest ->
        compare_counters a b;
        go rest
    | a :: _ -> fail "%s (got %S)" usage a
  in
  let args = List.tl (Array.to_list Sys.argv) in
  if args = [] then fail "%s" usage;
  try go args with Sys_error m -> fail "%s" m
