(* Tests for the structured logging layer: schema, filtering, ring
   buffer, span correlation, the allocation-free disabled path, and the
   Prometheus exposition + atomic textfile emitter. *)

module Log = Scdb_log.Log
module Metrics = Scdb_log.Metrics_export
module Tel = Scdb_telemetry.Telemetry
module Trace = Scdb_trace.Trace
module J = Scdb_json.Json

let t name f = Alcotest.test_case name `Quick f

(* Run [f] with logging enabled at [level], restoring all global log
   state afterwards so suites stay independent. *)
let with_log ?(level = Log.Debug) f =
  let was = Log.enabled () in
  Log.set_enabled true;
  Log.set_level level;
  Log.set_stderr false;
  Log.reset ();
  Fun.protect
    ~finally:(fun () ->
      Log.reset ();
      Log.set_ring_capacity 256;
      Log.set_enabled was)
    f

let last_event () =
  match List.rev (Log.tail ()) with
  | [] -> Alcotest.fail "log tail is empty"
  | line :: _ -> J.parse line

let contains s sub =
  let n = String.length s and k = String.length sub in
  let rec go i = i + k <= n && (String.sub s i k = sub || go (i + 1)) in
  k = 0 || go 0

let event_tests =
  [
    t "events carry the spatialdb-log/1 schema" (fun () ->
        with_log (fun () ->
            Log.info "test.hello" [ Log.str "who" "world"; Log.int "n" 3 ];
            let doc = last_event () in
            Alcotest.(check string) "schema" "spatialdb-log/1"
              (J.field "schema" J.str doc);
            Alcotest.(check string) "level" "info"
              (J.field "level" J.str doc);
            Alcotest.(check string) "event" "test.hello"
              (J.field "event" J.str doc);
            let fields = J.field "fields" Fun.id doc in
            Alcotest.(check string) "str field" "world"
              (J.field "who" J.str fields);
            Alcotest.(check int) "int field" 3 (J.field "n" J.int fields)));
    t "seq strictly increases and ts is finite, non-decreasing" (fun () ->
        with_log (fun () ->
            for i = 1 to 8 do
              Log.info "test.tick" [ Log.int "i" i ]
            done;
            let last_seq = ref (-1) and last_ts = ref neg_infinity in
            List.iter
              (fun line ->
                let doc = J.parse line in
                let seq = J.field "seq" J.int doc in
                let ts = J.field "ts" J.num doc in
                if seq <= !last_seq then Alcotest.failf "seq %d after %d" seq !last_seq;
                if ts < !last_ts then Alcotest.fail "ts went backwards";
                last_seq := seq;
                last_ts := ts)
              (Log.tail ());
            Alcotest.(check int) "eight events" 8 (List.length (Log.tail ()))));
    t "level filter drops events below the threshold" (fun () ->
        with_log ~level:Log.Warn (fun () ->
            Log.debug "test.d" [];
            Log.info "test.i" [];
            Log.warn "test.w" [];
            Log.error "test.e" [];
            Alcotest.(check int) "two events kept" 2 (List.length (Log.tail ()));
            Alcotest.(check int) "warn counted" 1 (Log.warn_count ());
            Alcotest.(check int) "error counted" 1 (Log.error_count ())));
    t "non-finite float fields stay valid JSON" (fun () ->
        with_log (fun () ->
            Log.info "test.inf" [ Log.float "a" Float.infinity; Log.float "b" Float.nan ];
            let doc = last_event () in
            (* Clamped, not rendered as bare inf/nan (which would break
               the JSON contract validate_logs enforces), nor as null. *)
            Alcotest.(check (pair (float 0.0) (float 0.0)))
              "clamped" (1e308, 0.0)
              (J.field "fields" (fun f -> (J.field "a" J.num f, J.field "b" J.num f)) doc)));
    t "ring buffer is bounded and keeps the newest events" (fun () ->
        with_log (fun () ->
            Log.set_ring_capacity 4;
            for i = 0 to 9 do
              Log.info "test.ring" [ Log.int "i" i ]
            done;
            let tail = Log.tail () in
            Alcotest.(check int) "bounded" 4 (List.length tail);
            let seqs =
              List.map (fun l -> J.field "seq" J.int (J.parse l)) tail
            in
            Alcotest.(check (list int)) "newest, oldest-first" [ 6; 7; 8; 9 ] seqs));
    t "events carry the current trace span id" (fun () ->
        with_log (fun () ->
            let trace_was = Trace.enabled () in
            Trace.set_enabled true;
            Trace.reset ();
            Fun.protect ~finally:(fun () -> Trace.set_enabled trace_was) @@ fun () ->
            Log.info "test.nospan" [];
            let outside = J.field "span" J.int (last_event ()) in
            Alcotest.(check int) "no span open" (-1) outside;
            let sp = Trace.start "log.span" in
            let id = Trace.current_id () in
            Log.info "test.inspan" [];
            Trace.finish sp;
            let inside = J.field "span" J.int (last_event ()) in
            Alcotest.(check bool) "real id" true (id >= 0);
            Alcotest.(check int) "correlated" id inside));
  ]

let alloc_tests =
  [
    t "disabled guard-and-skip path is allocation-free" (fun () ->
        let was = Log.enabled () in
        Log.set_enabled false;
        Fun.protect ~finally:(fun () -> Log.set_enabled was) @@ fun () ->
        let f () =
          for i = 1 to 1000 do
            if Log.would_log Log.Warn then
              Log.warn "test.alloc" [ Log.int "i" i; Log.float "x" 0.5 ]
          done
        in
        f ();
        (* warm up *)
        let w0 = Gc.minor_words () in
        f ();
        let dw = Gc.minor_words () -. w0 in
        Alcotest.(check bool)
          (Printf.sprintf "minor words %.0f < 256" dw)
          true (dw < 256.0));
    t "disabled emit with prebuilt fields is allocation-free" (fun () ->
        let was = Log.enabled () in
        Log.set_enabled false;
        Fun.protect ~finally:(fun () -> Log.set_enabled was) @@ fun () ->
        let fields = [ Log.int "i" 1 ] in
        let f () =
          for _ = 1 to 1000 do
            Log.warn "test.alloc2" fields
          done
        in
        f ();
        let w0 = Gc.minor_words () in
        f ();
        let dw = Gc.minor_words () -. w0 in
        Alcotest.(check bool)
          (Printf.sprintf "minor words %.0f < 256" dw)
          true (dw < 256.0));
  ]

let with_tel f =
  let was = Tel.enabled () in
  Tel.set_enabled true;
  Tel.reset ();
  Fun.protect ~finally:(fun () -> Tel.set_enabled was) f

let prometheus_tests =
  [
    t "counters and histogram summaries expose correctly" (fun () ->
        with_tel (fun () ->
            let c = Tel.Counter.make "promtest.count" in
            Tel.Counter.add c 3;
            let h = Tel.Histogram.make "promtest.lat" in
            Tel.Histogram.observe h 0.5;
            Tel.Histogram.observe h 1.0;
            Tel.Histogram.observe h 2.0;
            let s = Tel.to_prometheus () in
            List.iter
              (fun frag ->
                if not (contains s frag) then Alcotest.failf "missing %S in:\n%s" frag s)
              [
                "# TYPE spatialdb_promtest_count_total counter";
                "spatialdb_promtest_count_total 3";
                "# TYPE spatialdb_promtest_lat summary";
                "spatialdb_promtest_lat{quantile=\"0.5\"}";
                "spatialdb_promtest_lat{quantile=\"0.9\"}";
                "spatialdb_promtest_lat{quantile=\"0.99\"}";
                "spatialdb_promtest_lat_count 3";
                "spatialdb_promtest_lat_sum";
                (* Exact observed extrema ride along as gauge families
                   (a merged/reset min can move either way). *)
                "# TYPE spatialdb_promtest_lat_min gauge";
                "spatialdb_promtest_lat_min 0.5";
                "# TYPE spatialdb_promtest_lat_max gauge";
                "spatialdb_promtest_lat_max 2";
              ]));
    t "counter samples are monotonic across snapshots" (fun () ->
        with_tel (fun () ->
            let c = Tel.Counter.make "promtest.mono" in
            Tel.Counter.add c 2;
            let value snapshot =
              let line =
                List.find
                  (fun l ->
                    String.length l > 0 && l.[0] <> '#'
                    && contains l "spatialdb_promtest_mono_total ")
                  (String.split_on_char '\n' snapshot)
              in
              match String.split_on_char ' ' (String.trim line) with
              | [ _; v ] -> float_of_string v
              | _ -> Alcotest.failf "malformed sample line %S" line
            in
            let v1 = value (Tel.to_prometheus ()) in
            Tel.Counter.add c 5;
            let v2 = value (Tel.to_prometheus ()) in
            Alcotest.(check bool) "monotonic" true (v2 >= v1);
            Alcotest.(check (float 0.0)) "exact" 7.0 v2));
    t "write_file lands atomically with no temp residue" (fun () ->
        with_tel (fun () ->
            let c = Tel.Counter.make "promtest.file" in
            Tel.Counter.incr c;
            let path = Filename.temp_file "spatialdb_metrics" ".prom" in
            Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
            @@ fun () ->
            Metrics.write_file ~path;
            Alcotest.(check bool) "file exists" true (Sys.file_exists path);
            Alcotest.(check bool) "no temp file" false (Sys.file_exists (path ^ ".tmp"));
            let ic = open_in path in
            let s = really_input_string ic (in_channel_length ic) in
            close_in ic;
            Alcotest.(check bool) "has samples" true
              (contains s "spatialdb_promtest_file_total 1")));
  ]

let suites =
  [
    ("log.events", event_tests);
    ("log.alloc", alloc_tests);
    ("log.prometheus", prometheus_tests);
  ]
