(* Tests for the span tracer: nesting (also under exceptions), the
   zero-allocation disabled path, the span cap, and the Chrome
   trace-event export round-tripped through Scdb_json. *)

module Trace = Scdb_trace.Trace
module J = Scdb_json.Json

let t name f = Alcotest.test_case name `Quick f

let with_trace f =
  let was = Trace.enabled () in
  Trace.set_enabled true;
  Trace.reset ();
  Fun.protect
    ~finally:(fun () ->
      Trace.reset ();
      Trace.set_enabled was)
    f

exception Boom

let structure_tests =
  [
    t "spans nest dynamically" (fun () ->
        with_trace (fun () ->
            Trace.span "outer" (fun () ->
                Trace.span "inner" (fun () -> ());
                Trace.span "inner2" (fun () -> ()));
            match Trace.spans () with
            | [ outer; inner; inner2 ] ->
                Alcotest.(check string) "outer name" "outer" outer.Trace.v_name;
                Alcotest.(check int) "outer is root" (-1) outer.Trace.v_parent;
                Alcotest.(check int) "inner parent" outer.Trace.v_id inner.Trace.v_parent;
                Alcotest.(check int) "inner2 parent" outer.Trace.v_id inner2.Trace.v_parent;
                Alcotest.(check int) "inner depth" 1 inner.Trace.v_depth
            | l -> Alcotest.failf "expected 3 spans, got %d" (List.length l)));
    t "spans close under exceptions and record the error" (fun () ->
        with_trace (fun () ->
            (try Trace.span "outer" (fun () -> Trace.span "inner" (fun () -> raise Boom)) with
            | Boom -> ());
            match Trace.spans () with
            | [ outer; inner ] ->
                Alcotest.(check bool) "outer closed" true (outer.Trace.v_dur_us >= 0.0);
                Alcotest.(check bool) "inner closed" true (inner.Trace.v_dur_us >= 0.0);
                Alcotest.(check bool) "outer has error attr" true
                  (List.mem_assoc "error" outer.Trace.v_attrs);
                Alcotest.(check bool) "inner has error attr" true
                  (List.mem_assoc "error" inner.Trace.v_attrs)
            | l -> Alcotest.failf "expected 2 spans, got %d" (List.length l)));
    t "start/finish pairs nest like span" (fun () ->
        with_trace (fun () ->
            let a = Trace.start "a" in
            let b = Trace.start "b" in
            Trace.finish b;
            Trace.finish a;
            match Trace.spans () with
            | [ va; vb ] ->
                Alcotest.(check int) "b under a" va.Trace.v_id vb.Trace.v_parent;
                Alcotest.(check bool) "both closed" true
                  (va.Trace.v_dur_us >= 0.0 && vb.Trace.v_dur_us >= 0.0)
            | l -> Alcotest.failf "expected 2 spans, got %d" (List.length l)));
    t "finish closes orphans left open by a non-local exit" (fun () ->
        with_trace (fun () ->
            let a = Trace.start "a" in
            let _b = Trace.start "b" in
            let _c = Trace.start "c" in
            (* Closing [a] directly must close b and c too. *)
            Trace.finish a;
            List.iter
              (fun v -> Alcotest.(check bool) (v.Trace.v_name ^ " closed") true (v.Trace.v_dur_us >= 0.0))
              (Trace.spans ())));
    t "attributes attach to the innermost open span" (fun () ->
        with_trace (fun () ->
            Trace.span "outer" (fun () ->
                Trace.span "inner" (fun () -> Trace.add_attr_int "k" 7));
            match Trace.spans () with
            | [ _; inner ] ->
                Alcotest.(check (option string)) "inner got k" (Some "7")
                  (List.assoc_opt "k" inner.Trace.v_attrs)
            | _ -> Alcotest.fail "expected 2 spans"));
    t "span cap stops recording, not execution" (fun () ->
        with_trace (fun () ->
            Trace.set_span_limit 3;
            Fun.protect
              ~finally:(fun () -> Trace.set_span_limit 200_000)
              (fun () ->
                let ran = ref 0 in
                for _ = 1 to 10 do
                  Trace.span "s" (fun () -> incr ran)
                done;
                Alcotest.(check int) "all bodies ran" 10 !ran;
                Alcotest.(check int) "recorded capped" 3 (Trace.count ()))));
  ]

let disabled_tests =
  [
    t "disabled start/finish allocates nothing" (fun () ->
        let was = Trace.enabled () in
        Trace.set_enabled false;
        Fun.protect
          ~finally:(fun () -> Trace.set_enabled was)
          (fun () ->
            (* Warm up so any one-time allocation is out of the way. *)
            for _ = 1 to 100 do
              Trace.finish (Trace.start "hot")
            done;
            let before = Gc.allocated_bytes () in
            for _ = 1 to 100_000 do
              Trace.finish (Trace.start "hot");
              Trace.add_attr "k" "v"
            done;
            let after = Gc.allocated_bytes () in
            (* Gc.allocated_bytes itself boxes a float per call; anything
               beyond that slack means the disabled path allocates. *)
            Alcotest.(check bool) "no measurable allocation" true (after -. before < 256.0)));
    t "disabled spans record nothing" (fun () ->
        let was = Trace.enabled () in
        Trace.set_enabled false;
        Fun.protect
          ~finally:(fun () -> Trace.set_enabled was)
          (fun () ->
            Trace.reset ();
            Trace.span "s" (fun () -> ());
            Alcotest.(check int) "no spans" 0 (Trace.count ())));
  ]

let export_tests =
  [
    t "chrome JSON round-trips with monotone non-negative ts/dur" (fun () ->
        with_trace (fun () ->
            Trace.span "root" ~attrs:[ ("dim", "2") ] (fun () ->
                for i = 1 to 5 do
                  Trace.span (Printf.sprintf "child%d" i) (fun () ->
                      let acc = ref 0.0 in
                      for j = 1 to 1000 do
                        acc := !acc +. sqrt (float_of_int j)
                      done;
                      ignore !acc)
                done);
            let doc = J.parse (J.to_string (Trace.to_chrome_json ())) in
            let events = J.field "traceEvents" (J.list Fun.id) doc in
            Alcotest.(check int) "all spans exported" (Trace.count ()) (List.length events);
            let last = ref 0.0 in
            List.iter
              (fun ev ->
                let ts = J.field "ts" J.num ev and dur = J.field "dur" J.num ev in
                Alcotest.(check bool) "ts >= 0" true (ts >= 0.0);
                Alcotest.(check bool) "dur >= 0" true (dur >= 0.0);
                Alcotest.(check bool) "ts monotone" true (ts >= !last);
                last := ts)
              events;
            (* The root's args survive the round trip. *)
            let root = List.hd events in
            Alcotest.(check string) "root name" "root" (J.field "name" J.str root);
            Alcotest.(check string) "dim attr" "2" (J.field "args" (J.field "dim" J.str) root)));
    t "text tree indents by depth" (fun () ->
        with_trace (fun () ->
            Trace.span "a" (fun () -> Trace.span "b" (fun () -> ()));
            let tree = Trace.to_text_tree () in
            let lines = String.split_on_char '\n' tree in
            match lines with
            | a :: b :: _ ->
                Alcotest.(check bool) "a at margin" true (String.length a > 0 && a.[0] = 'a');
                Alcotest.(check bool) "b indented" true
                  (String.length b > 2 && b.[0] = ' ' && b.[1] = ' ' && b.[2] = 'b')
            | _ -> Alcotest.fail "expected two lines"));
  ]

let suites =
  [
    ("trace.structure", structure_tests);
    ("trace.disabled", disabled_tests);
    ("trace.export", export_tests);
  ]
