(* Tests for the process-wide observability stores: concurrent domains
   writing one counter and one histogram lose nothing, spans record on
   the main domain only, the disabled hot paths stay allocation-free,
   [Trace.reset] restamps the trace clock, and the log ring wraps at a
   configured capacity and takes whole lines from two domains at once.
   The instrumentation golden fixture closes the file. *)

module Probe = Scdb_obs.Probe
module Tel = Scdb_telemetry.Telemetry
module Trace = Scdb_trace.Trace
module Log = Scdb_log.Log
module J = Scdb_json.Json

let t name f = Alcotest.test_case name `Quick f

let with_tel f =
  let was = Tel.enabled () in
  Tel.set_enabled true;
  Fun.protect ~finally:(fun () -> Tel.set_enabled was) f

(* Deterministic pseudo-observations, no RNG stream involved. *)
let obs_values salt n =
  List.init n (fun i ->
      let x = float_of_int ((i * 37) + salt) in
      0.5 +. (x *. 1.7) +. (3000.0 *. float_of_int (i mod 3)))

let ctr_c = Tel.Counter.make "test.obs.counter"
let hist_h = Tel.Histogram.make "test.obs.hist"

let hist_stats () =
  let h = J.field "histograms" (J.field "test.obs.hist" Fun.id) (Tel.dump ~only_nonzero:true ()) in
  let f k = J.field k J.num h in
  (f "count", f "p50", f "p90", f "p99", f "min", f "max", f "sum")

(* Run [a] and [b] at once on two fresh domains. *)
let on_two_domains a b =
  let da = Domain.spawn a and db = Domain.spawn b in
  Domain.join da;
  Domain.join db

let merge_tests =
  [
    t "counter-sum law" (fun () ->
        (* Two domains' adds all land in the one atomic cell. *)
        with_tel (fun () ->
            Tel.reset ();
            let adds k () =
              for _ = 1 to 10_000 do
                Tel.Counter.add ctr_c k
              done
            in
            on_two_domains (adds 7) (adds 11);
            Alcotest.(check int) "sum" 180_000 (Tel.Counter.value ctr_c)));
    t "merged histogram quantiles equal concatenated-fed ones" (fun () ->
        with_tel (fun () ->
            let xs = obs_values 1 2000 and ys = obs_values 4777 1500 in
            Tel.reset ();
            on_two_domains
              (fun () -> List.iter (Tel.Histogram.observe hist_h) xs)
              (fun () -> List.iter (Tel.Histogram.observe hist_h) ys);
            let mn, mp50, mp90, mp99, mmin, mmax, msum = hist_stats () in
            Tel.reset ();
            List.iter (Tel.Histogram.observe hist_h) (xs @ ys);
            let cn, cp50, cp90, cp99, cmin, cmax, csum = hist_stats () in
            Alcotest.(check (float 0.0)) "count" cn mn;
            (* The bucket populations, vmin/vmax and n do not depend on
               the interleaving, so the interpolated quantiles are
               bit-identical — only the sum can differ by float
               association. *)
            Alcotest.(check (float 0.0)) "p50" cp50 mp50;
            Alcotest.(check (float 0.0)) "p90" cp90 mp90;
            Alcotest.(check (float 0.0)) "p99" cp99 mp99;
            Alcotest.(check (float 0.0)) "min" cmin mmin;
            Alcotest.(check (float 0.0)) "max" cmax mmax;
            Alcotest.(check bool)
              "sum within association slack" true
              (Float.abs (csum -. msum) /. Float.abs csum < 1e-12)));
    t "spans record on the main domain only" (fun () ->
        let was = Trace.enabled () in
        Trace.set_enabled true;
        Fun.protect ~finally:(fun () -> Trace.set_enabled was) @@ fun () ->
        Trace.reset ();
        Trace.span "main" (fun () ->
            let inner =
              Domain.join
                (Domain.spawn (fun () ->
                     Trace.span "worker" (fun () -> Trace.current_id ())))
            in
            Alcotest.(check int) "no open span on the worker" (-1) inner);
        Alcotest.(check (list string)) "spans" [ "main" ]
          (List.map (fun v -> v.Trace.v_name) (Trace.spans ())));
  ]

let alloc_tests =
  [
    t "disabled counter bump stays allocation-free" (fun () ->
        let was = Tel.enabled () in
        Tel.set_enabled false;
        Fun.protect ~finally:(fun () -> Tel.set_enabled was) @@ fun () ->
        let f () =
          for _ = 1 to 1000 do
            Tel.Counter.incr ctr_c
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

(* One descriptor of each probe kind, for the disabled-path checks. *)
let probe_walk =
  Probe.walk ~chains:"test.probe.chains" ~proposals:"test.probe.proposals"
    ~tally:"test.probe.tally" "test.probe.steps"

let probe_trial = Probe.trial ~counter:"test.probe.trials" ()

let probe_phase =
  Probe.phase "test.probe.phase" (fun i x -> [ Probe.int "i" i; Probe.float "x" x ])

let probe_warning =
  Probe.warning ~counter:"test.probe.warnings" "test.probe.warning" (fun i x ->
      [ Probe.int "i" i; Probe.float "x" x ])

let probe_path = [| 0 |]

(* [event i] run 1000 times with every store off allocates nothing. *)
let disabled_probe_is_free event () =
  let tel = Tel.enabled () and tr = Trace.enabled () and lg = Log.enabled () in
  Tel.set_enabled false;
  Trace.set_enabled false;
  Log.set_enabled false;
  Fun.protect
    ~finally:(fun () ->
      Tel.set_enabled tel;
      Trace.set_enabled tr;
      Log.set_enabled lg)
  @@ fun () ->
  let f () =
    for i = 1 to 1000 do
      event i
    done
  in
  let words () =
    f ();
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  let dw = words () in
  Alcotest.(check bool) (Printf.sprintf "minor words %.0f < 256" dw) true (dw < 256.0)

let probe_alloc_tests =
  [
    t "disabled step-batch probe stays allocation-free"
      (disabled_probe_is_free (fun i ->
           Probe.steps probe_walk ~chains:1 ~steps:i ~proposals:i ~tally:i));
    t "disabled trial probes stay allocation-free"
      (disabled_probe_is_free (fun i ->
           Probe.trials probe_trial i;
           Probe.trials_on probe_trial probe_path i));
    (* The float argument is a constant: a computed float is boxed by
       the caller, as for any call, before the probe runs. *)
    t "disabled phase probe stays allocation-free"
      (disabled_probe_is_free (fun i ->
           let sp = Probe.enter probe_phase in
           Probe.leave2 probe_phase sp i 0.5));
    t "disabled warning probe stays allocation-free"
      (disabled_probe_is_free (fun i -> Probe.warn2 probe_warning i 0.5));
  ]

let epoch_tests =
  [
    t "reset restamps the ambient epoch" (fun () ->
        let was = Trace.enabled () in
        Trace.set_enabled true;
        Fun.protect ~finally:(fun () -> Trace.set_enabled was) @@ fun () ->
        let first_ts () =
          Trace.span "probe" ignore;
          (List.hd (Trace.spans ())).Trace.v_ts_us
        in
        Trace.reset ();
        let acc = ref 0.0 in
        for i = 1 to 2_000_000 do
          acc := !acc +. sqrt (float_of_int i)
        done;
        ignore !acc;
        let late = first_ts () in
        Trace.reset ();
        let fresh = first_ts () in
        Alcotest.(check bool)
          (Printf.sprintf "span after reset at %.0f us, before it at %.0f us" fresh late)
          true (fresh < late));
  ]

let seq_of_line line = J.field "seq" J.int (J.parse line)

(* Logging on at info level into a fresh ring of [capacity], stderr off;
   the default 256-event ring is back afterwards. *)
let with_log capacity f =
  let was = Log.enabled () in
  Log.set_enabled true;
  Log.set_level Log.Info;
  Log.set_stderr false;
  Log.set_ring_capacity capacity;
  Log.reset ();
  Fun.protect
    ~finally:(fun () ->
      Log.set_enabled was;
      Log.set_ring_capacity 256)
    f

let log_tests =
  [
    t "ring wraparound at a non-default capacity" (fun () ->
        with_log 8 @@ fun () ->
        for i = 1 to 20 do
          Log.info "test.ring" [ Log.int "i" i ]
        done;
        (* Oldest first, consecutive, and ending at the last event. *)
        Alcotest.(check (list int)) "last 8 events in order"
          [ 12; 13; 14; 15; 16; 17; 18; 19 ]
          (List.map seq_of_line (Log.tail ())));
    t "two domains share one sink without tearing lines" (fun () ->
        with_log 64 @@ fun () ->
        let writer tag () =
          for i = 1 to 100 do
            Log.info ("test.dom." ^ tag) [ Log.int "i" i; Log.str "t" tag ]
          done
        in
        on_two_domains (writer "a") (writer "b");
        let tail = Log.tail () in
        Alcotest.(check int) "the last event is the 200th" 199
          (seq_of_line (List.nth tail (List.length tail - 1)));
        Alcotest.(check int) "ring full" 64 (List.length tail);
        (* Whole-line interleaving: every ring entry is valid JSON with
           the expected shape. *)
        List.iter
          (fun line ->
            match J.field "event" J.str (J.parse line) with
            | "test.dom.a" | "test.dom.b" -> ()
            | _ -> Alcotest.fail ("unexpected event in: " ^ line))
          tail);
    t "two domains write one file in one seq order" (fun () ->
        with_log 8 @@ fun () ->
        let file = Filename.temp_file "spatialdb_obs" ".jsonl" in
        Log.open_file file;
        let writer tag () =
          for i = 1 to 100 do
            Log.info ("test.out." ^ tag) [ Log.int "i" i ]
          done
        in
        on_two_domains (writer "a") (writer "b");
        Log.close_file ();
        let lines =
          In_channel.with_open_text file In_channel.input_all
          |> String.split_on_char '\n'
          |> List.filter (( <> ) "")
        in
        Sys.remove file;
        Alcotest.(check (list int)) "one sequence, in file order" (List.init 200 Fun.id)
          (List.map seq_of_line lines);
        let count tag =
          List.length
            (List.filter (fun l -> J.field "event" J.str (J.parse l) = "test.out." ^ tag) lines)
        in
        Alcotest.(check (pair int int)) "each domain's events reach the file" (100, 100)
          (count "a", count "b"));
  ]

(* The instrumentation golden fixture: every counter, histogram count,
   log event, span and progress accrual of the fixed-seed sampler runs
   in [Golden_obs].  On a mismatch the actual document is written next
   to the test binary so it can be diffed (or, after a deliberate
   change, copied over the fixture). *)
let golden_tests =
  [
    t "sampler instrumentation matches the golden fixture" (fun () ->
        let dir = Filename.dirname Sys.executable_name in
        let read path =
          let ic = open_in_bin path in
          Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
              really_input_string ic (in_channel_length ic))
        in
        let expected =
          read (Filename.concat dir "fixtures/instrumentation.golden.json")
        in
        let actual = Golden_obs.document () in
        if actual <> expected then begin
          let out = Filename.concat dir "instrumentation.golden.actual.json" in
          let oc = open_out_bin out in
          output_string oc actual;
          close_out oc;
          let runs doc = J.field "runs" (J.obj Fun.id) (J.parse doc) in
          let differing =
            List.filter_map
              (fun (name, run) ->
                match List.assoc_opt name (runs expected) with
                | Some run' when run' = run -> None
                | _ -> Some name)
              (runs actual)
          in
          Alcotest.failf "instrumentation differs in run(s) %s; actual document in %s"
            (String.concat ", " differing) out
        end);
  ]

let suites =
  [
    ("obs.golden", golden_tests);
    ("obs.merge", merge_tests);
    ("obs.alloc", alloc_tests @ probe_alloc_tests);
    ("obs.epoch", epoch_tests);
    ("obs.log", log_tests);
  ]
