(* Validator for the multi-run status artifacts of `make ci`:

   Usage: validate_status [--status FILE [--min-contexts N]]
                          [--compare-counters A B]

   --status FILE          a spatialdb-status/1 document (written by
                          `spatialdb sample --status-out`), read through
                          Scdb_obs.Obs.Status.of_json (schema, finite
                          timestamp, every context named with finite
                          non-negative draws, elapsed, work, budget and
                          counts, acceptance / budget_burn / ess finite
                          or null); additionally every count must be
                          written as an integer literal.
   --min-contexts N       with --status: at least N contexts must show
                          draws > 0 — the CI assertion that the
                          concurrently active job contexts really were
                          observed.
   --compare-counters A B two telemetry dump files (as written by
                          --stats-out): their "counters" objects must
                          be exactly equal.  `make ci` feeds it the
                          merged dumps of a 2-domain and a sequential
                          run of the same jobs, the differential check
                          that context merging loses nothing.

   Exits 1 with a message on the first violation. *)

module J = Scdb_json.Json
module Status = Scdb_obs.Obs.Status

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("validate_status: " ^ m); exit 1) fmt
let ok = function Ok v -> v | Error m -> fail "%s" m

(* ---------------- status documents ---------------- *)

(* The reader accepts an integral float for a count; the writer must
   spell every count as an integer. *)
let integer_literals c =
  List.iter
    (fun k -> match J.field k Fun.id c with J.Int _ -> () | _ -> J.fail "non-integer %s" k)
    [ "accepted"; "attempts"; "warns"; "errors"; "spans" ]

let check_status ~min_contexts path =
  let decode doc =
    let rows = match Status.of_json doc with Ok rows -> rows | Error m -> J.fail "%s" m in
    ignore (J.field "contexts" (J.list integer_literals) doc);
    rows
  in
  let rows = ok (J.of_file path decode) in
  let active = List.length (List.filter (fun r -> r.Status.r_draws > 0.0) rows) in
  if active < min_contexts then
    fail "%s: only %d context(s) with draws > 0 (expected >= %d)" path active min_contexts;
  Printf.printf "validate_status: %s OK (%d context(s), %d with draws)\n" path
    (List.length rows) active

(* ---------------- counter comparison ---------------- *)

let counters_of path = List.sort compare (ok (J.of_file path (J.field "counters" (J.obj J.int))))

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
  Printf.printf "validate_status: counters of %s and %s are identical (%d counter(s))\n" a b
    (List.length ca)

(* ---------------- driver ---------------- *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec go checked = function
    | [] -> if not checked then fail "nothing to do (see usage in the source header)"
    | "--status" :: path :: rest ->
        let min_contexts, rest =
          match rest with
          | "--min-contexts" :: n :: rest -> (
              match int_of_string_opt n with
              | Some n -> (n, rest)
              | None -> fail "malformed --min-contexts %S" n)
          | _ -> (0, rest)
        in
        check_status ~min_contexts path;
        go true rest
    | "--compare-counters" :: a :: b :: rest ->
        compare_counters a b;
        go true rest
    | a :: _ -> fail "unknown argument %S" a
  in
  go false args
