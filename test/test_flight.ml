(* Tests for the flight recorder: bit-exact record/replay on the
   Figure 1 triangle, hex-float round-tripping, divergence reporting on
   corrupted records, and the generator's draw count. *)

module Flight = Scdb_gis.Flight
module Flightrec = Scdb_log.Flightrec
module Rng = Scdb_rng.Rng

let t name f = Alcotest.test_case name `Quick f
let ts name f = Alcotest.test_case name `Slow f

let fig1 = "x >= 0 /\\ y >= 0 /\\ x + y <= 1"

let args =
  {
    Flight.vars = [ "x"; "y" ];
    formula = fig1;
    n = 5;
    seed = 123;
    eps = 0.2;
    delta = 0.1;
    method_ = "walk";
    engine = "interp";
  }

let run_ok a =
  match Flight.run a with
  | Ok o -> o
  | Error m -> Alcotest.failf "Flight.run failed: %s" m

let record () = Flight.to_flightrec args (run_ok args)

let contains s sub =
  let n = String.length s and k = String.length sub in
  let rec go i = i + k <= n && (String.sub s i k = sub || go (i + 1)) in
  k = 0 || go 0

let tests =
  [
    ts "same seed yields a bit-identical stream" (fun () ->
        let a = run_ok args and b = run_ok args in
        match
          Flightrec.compare_samples ~recorded:a.Flight.points ~replayed:b.Flight.points
        with
        | Ok n -> Alcotest.(check int) "length" 5 n
        | Error m -> Alcotest.failf "streams diverged: %s" m);
    ts "record round-trips through JSON bit-exactly" (fun () ->
        let r = record () in
        match Flightrec.of_json (Flightrec.to_json r) with
        | Error m -> Alcotest.failf "re-parse failed: %s" m
        | Ok r' ->
            Alcotest.(check string) "command" r.Flightrec.command r'.Flightrec.command;
            Alcotest.(check int) "seed" r.Flightrec.seed r'.Flightrec.seed;
            Alcotest.(check (option string)) "formula" (Flightrec.arg r "formula")
              (Flightrec.arg r' "formula");
            Alcotest.(check (option int)) "draws" r.Flightrec.draws r'.Flightrec.draws;
            (match
               Flightrec.compare_samples ~recorded:r.Flightrec.samples
                 ~replayed:r'.Flightrec.samples
             with
            | Ok _ -> ()
            | Error m -> Alcotest.failf "samples changed in round-trip: %s" m));
    t "hex floats survive extreme values" (fun () ->
        let weird = [| 0.1; -0.0; 1e-300; Float.pi; 4.9e-324 |] in
        let r =
          {
            Flightrec.command = "sample";
            args = [];
            seed = 0;
            samples = [ weird ];
            draws = None;
            telemetry = None;
            log_tail = [];
          }
        in
        match Flightrec.of_json (Flightrec.to_json r) with
        | Error m -> Alcotest.failf "re-parse failed: %s" m
        | Ok r' -> (
            match
              Flightrec.compare_samples ~recorded:r.Flightrec.samples
                ~replayed:r'.Flightrec.samples
            with
            | Ok _ -> ()
            | Error m -> Alcotest.failf "bit drift: %s" m));
    ts "replay reproduces the recorded stream" (fun () ->
        let r = record () in
        (match Flight.replay r with
        | Ok n -> Alcotest.(check int) "verified length" 5 n
        | Error m -> Alcotest.failf "replay failed: %s" m));
    ts "corrupted record diverges with the first differing draw" (fun () ->
        let r = record () in
        let samples =
          match r.Flightrec.samples with
          | p :: rest ->
              let p' = Array.copy p in
              p'.(0) <- Int64.float_of_bits (Int64.add (Int64.bits_of_float p.(0)) 1L);
              p' :: rest
          | [] -> Alcotest.fail "empty sample stream"
        in
        (match Flight.replay { r with Flightrec.samples } with
        | Ok _ -> Alcotest.fail "corrupted record replayed cleanly"
        | Error m ->
            Alcotest.(check bool)
              (Printf.sprintf "message names the divergence: %s" m)
              true
              (contains m "first divergence at sample 0, coordinate 0")));
    ts "provenance captures the root generator and its draws" (fun () ->
        let o = run_ok args in
        let r = Flight.to_flightrec args o in
        Alcotest.(check (option int)) "the run's draws" (Some (Rng.draw_count o.Flight.rng))
          r.Flightrec.draws;
        Alcotest.(check bool) "draws counted" true (Option.get r.Flightrec.draws > 0);
        (* Written as the one-node lineage earlier records carried. *)
        let module J = Scdb_json.Json in
        match J.field "rng" (J.list Fun.id) (J.parse (Flightrec.to_json r)) with
        | [ root ] ->
            Alcotest.(check int) "root id" 0 (J.field "id" J.int root);
            Alcotest.(check int) "root parent" (-1) (J.field "parent" J.int root);
            Alcotest.(check string) "root op" "create" (J.field "op" J.str root)
        | nodes -> Alcotest.failf "expected one rng node, got %d" (List.length nodes));
    t "replay rejects records from other commands" (fun () ->
        let r =
          {
            Flightrec.command = "volume";
            args = [];
            seed = 1;
            samples = [];
            draws = None;
            telemetry = None;
            log_tail = [];
          }
        in
        match Flight.replay r with
        | Ok _ -> Alcotest.fail "replayed a volume record"
        | Error m -> Alcotest.(check bool) "explains" true (contains m "only \"sample\""));
    t "a negative sample count is an error, recorded or not" (fun () ->
        (match Flight.run { args with Flight.n = -2 } with
        | Ok _ -> Alcotest.fail "ran with n = -2"
        | Error _ -> ());
        let r = record () in
        let r = { r with Flightrec.args = ("n", "-2") :: List.remove_assoc "n" r.Flightrec.args } in
        match Flight.replay r with
        | Ok _ -> Alcotest.fail "replayed a record with n = -2"
        | Error m -> Alcotest.(check string) "malformed" "malformed n" m);
    ts "committed pre-batching record still replays bit-exactly" (fun () ->
        (* Fixture first recorded by the incremental single-chain
           kernel before the batched SoA kernel landed, and re-recorded
           with the same args and seed when every walk moved to
           ziggurat directions: replay pins the K=1 RNG stream and
           chord arithmetic. *)
        (* The runner executes from the build root; the fixture sits
           next to the test executable (declared as a dune dep). *)
        let path =
          Filename.concat
            (Filename.dirname Sys.executable_name)
            (Filename.concat "fixtures" "incremental_k1.flightrec.json")
        in
        let ic = open_in_bin path in
        let len = in_channel_length ic in
        let text = really_input_string ic len in
        close_in ic;
        match Flightrec.of_json text with
        | Error m -> Alcotest.failf "fixture did not parse: %s" m
        | Ok r -> (
            match Flight.replay r with
            | Ok n -> Alcotest.(check int) "samples reproduced" 6 n
            | Error m -> Alcotest.failf "fixture replay diverged: %s" m));
  ]

let suites = [ ("gis.flight", tests) ]
