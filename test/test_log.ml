(* Tests for the structured logging layer: schema, filtering, ring
   buffer, span correlation and the allocation-free disabled path. *)

module Log = Scdb_log.Log
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

let suites =
  [
    ("log.events", event_tests);
    ("log.alloc", alloc_tests);
  ]
