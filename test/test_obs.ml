(* Tests for the observability contexts: merge laws (counter sum,
   exact histogram-quantile merge, empty-context identity), the
   2-domain differential (concurrent contexted runs merge to the same
   counters as sequential ones), the disabled hot path staying
   allocation-free with contexts in play, per-forest trace epochs,
   configurable log-ring capacity under concurrent writers and the
   bounded provenance table. *)

module Obs = Scdb_obs.Obs
module Probe = Scdb_obs.Probe
module Tel = Scdb_telemetry.Telemetry
module Trace = Scdb_trace.Trace
module Log = Scdb_log.Log
module Rng = Scdb_rng.Rng
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

let cval reg = Option.value ~default:0 (Tel.counter_value ~reg "test.obs.counter")

let hist_stats reg =
  let dump = Tel.dump ~only_nonzero:true ~reg () in
  let h = J.field "histograms" (J.field "test.obs.hist" Fun.id) dump in
  let f k = J.field k J.num h in
  (f "count", f "p50", f "p90", f "p99", f "min", f "max", f "sum")

let merge_tests =
  [
    t "counter-sum law" (fun () ->
        with_tel (fun () ->
            let a = Obs.Ctx.create ~name:"a" () in
            let b = Obs.Ctx.create ~name:"b" () in
            Obs.Ctx.run a (fun () -> Tel.Counter.add ctr_c 7);
            Obs.Ctx.run b (fun () -> Tel.Counter.add ctr_c 11);
            let dst = Obs.Ctx.create ~name:"dst" () in
            Obs.Ctx.merge ~into:dst a;
            Obs.Ctx.merge ~into:dst b;
            Alcotest.(check int) "sum" 18 (cval (Obs.Ctx.registry dst));
            Alcotest.(check int) "src a unchanged" 7 (cval (Obs.Ctx.registry a));
            Alcotest.(check int) "src b unchanged" 11 (cval (Obs.Ctx.registry b))));
    t "merged histogram quantiles equal concatenated-fed ones" (fun () ->
        with_tel (fun () ->
            let xs = obs_values 1 200 and ys = obs_values 4777 150 in
            let a = Obs.Ctx.create ~name:"a" () in
            let b = Obs.Ctx.create ~name:"b" () in
            Obs.Ctx.run a (fun () -> List.iter (Tel.Histogram.observe hist_h) xs);
            Obs.Ctx.run b (fun () -> List.iter (Tel.Histogram.observe hist_h) ys);
            let dst = Obs.Ctx.create ~name:"dst" () in
            Obs.Ctx.merge ~into:dst a;
            Obs.Ctx.merge ~into:dst b;
            let concat = Obs.Ctx.create ~name:"concat" () in
            Obs.Ctx.run concat (fun () ->
                List.iter (Tel.Histogram.observe hist_h) (xs @ ys));
            let mn, mp50, mp90, mp99, mmin, mmax, msum =
              hist_stats (Obs.Ctx.registry dst)
            in
            let cn, cp50, cp90, cp99, cmin, cmax, csum =
              hist_stats (Obs.Ctx.registry concat)
            in
            Alcotest.(check (float 0.0)) "count" cn mn;
            (* The bucket populations, vmin/vmax and n merge exactly,
               so the interpolated quantiles are bit-identical — only
               the sum can differ by float association. *)
            Alcotest.(check (float 0.0)) "p50" cp50 mp50;
            Alcotest.(check (float 0.0)) "p90" cp90 mp90;
            Alcotest.(check (float 0.0)) "p99" cp99 mp99;
            Alcotest.(check (float 0.0)) "min" cmin mmin;
            Alcotest.(check (float 0.0)) "max" cmax mmax;
            Alcotest.(check bool)
              "sum within association slack" true
              (Float.abs (csum -. msum) /. Float.abs csum < 1e-12)));
    t "merging an empty context is the identity" (fun () ->
        with_tel (fun () ->
            let a = Obs.Ctx.create ~name:"a" () in
            Obs.Ctx.run a (fun () ->
                Tel.Counter.add ctr_c 5;
                List.iter (Tel.Histogram.observe hist_h) (obs_values 9 50));
            let before = Tel.dump ~only_nonzero:true ~reg:(Obs.Ctx.registry a) () in
            Obs.Ctx.merge ~into:a (Obs.Ctx.create ~name:"empty" ());
            let after = Tel.dump ~only_nonzero:true ~reg:(Obs.Ctx.registry a) () in
            Alcotest.(check string) "dump unchanged" (J.to_string before) (J.to_string after)));
    t "2-domain contexted runs merge to the same counters as sequential"
      (fun () ->
        with_tel (fun () ->
            let work salt () =
              Tel.Counter.add ctr_c (100 + salt);
              List.iter (Tel.Histogram.observe hist_h) (obs_values salt 300)
            in
            (* Concurrent: each job in its own context on its own domain. *)
            let ca0 = Obs.Ctx.create ~name:"par-0" () in
            let ca1 = Obs.Ctx.create ~name:"par-1" () in
            let d0 = Domain.spawn (fun () -> Obs.Ctx.run ca0 (work 1)) in
            let d1 = Domain.spawn (fun () -> Obs.Ctx.run ca1 (work 2)) in
            Domain.join d0;
            Domain.join d1;
            let par = Obs.Ctx.create ~name:"par" () in
            Obs.Ctx.merge ~into:par ca0;
            Obs.Ctx.merge ~into:par ca1;
            (* Sequential baseline: same jobs, same contexts shape. *)
            let cb0 = Obs.Ctx.create ~name:"seq-0" () in
            let cb1 = Obs.Ctx.create ~name:"seq-1" () in
            Obs.Ctx.run cb0 (work 1);
            Obs.Ctx.run cb1 (work 2);
            let seq = Obs.Ctx.create ~name:"seq" () in
            Obs.Ctx.merge ~into:seq cb0;
            Obs.Ctx.merge ~into:seq cb1;
            Alcotest.(check string)
              "merged dumps identical"
              (J.to_string (Tel.dump ~only_nonzero:true ~reg:(Obs.Ctx.registry seq) ()))
              (J.to_string (Tel.dump ~only_nonzero:true ~reg:(Obs.Ctx.registry par) ()))));
    t "span forests splice under a synthetic root" (fun () ->
        let was = Trace.enabled () in
        Trace.set_enabled true;
        Fun.protect ~finally:(fun () -> Trace.set_enabled was) @@ fun () ->
        let a = Trace.Forest.create () and b = Trace.Forest.create () in
        Trace.with_forest a (fun () -> Trace.span "alpha" (fun () -> ()));
        Trace.with_forest b (fun () ->
            Trace.span "beta" (fun () -> Trace.span "gamma" (fun () -> ())));
        Trace.Forest.merge_into ~name:"child" ~dst:a b;
        let views = Trace.Forest.spans a in
        Alcotest.(check int) "sizes add plus root" 4 (List.length views);
        let root =
          List.find (fun v -> v.Trace.v_name = "child") views
        in
        Alcotest.(check int) "synthetic root at depth 0" 0 root.Trace.v_depth;
        Alcotest.(check int) "synthetic root is a root" (-1) root.Trace.v_parent;
        Alcotest.(check bool)
          "span count attr" true
          (List.mem_assoc "spans" root.Trace.v_attrs);
        let beta = List.find (fun v -> v.Trace.v_name = "beta") views in
        Alcotest.(check int) "src root re-parented" root.Trace.v_id
          beta.Trace.v_parent;
        let gamma = List.find (fun v -> v.Trace.v_name = "gamma") views in
        Alcotest.(check int) "nesting preserved" beta.Trace.v_id
          gamma.Trace.v_parent;
        Alcotest.(check int) "depth shifted" 2 gamma.Trace.v_depth);
  ]

let alloc_tests =
  [
    t "disabled counter bump stays allocation-free with contexts live" (fun () ->
        let was = Tel.enabled () in
        Tel.set_enabled false;
        Fun.protect ~finally:(fun () -> Tel.set_enabled was) @@ fun () ->
        (* A created (but uninstalled) context must not change the
           disabled fast path. *)
        let c = Obs.Ctx.create ~name:"idle" () in
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
          true (dw < 256.0);
        (* And with the context installed it is the same one-branch path. *)
        Obs.Ctx.run c (fun () ->
            f ();
            let w1 = Gc.minor_words () in
            f ();
            let dw = Gc.minor_words () -. w1 in
            Alcotest.(check bool)
              (Printf.sprintf "contexted minor words %.0f < 256" dw)
              true (dw < 256.0)));
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

(* [event i] run 1000 times with every store off allocates nothing, with
   a context created and then with it installed. *)
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
  let c = Obs.Ctx.create ~name:"idle" () in
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
  Alcotest.(check bool) (Printf.sprintf "minor words %.0f < 256" dw) true (dw < 256.0);
  let dw = Obs.Ctx.run c words in
  Alcotest.(check bool) (Printf.sprintf "contexted minor words %.0f < 256" dw) true (dw < 256.0)

let probe_alloc_tests =
  [
    t "disabled step-batch probe stays allocation-free with contexts live"
      (disabled_probe_is_free (fun i ->
           Probe.steps probe_walk ~chains:1 ~steps:i ~proposals:i ~tally:i));
    t "disabled trial probes stay allocation-free with contexts live"
      (disabled_probe_is_free (fun i ->
           Probe.trials probe_trial i;
           Probe.trials_on probe_trial probe_path i));
    (* The float argument is a constant: a computed float is boxed by
       the caller, as for any call, before the probe runs. *)
    t "disabled phase probe stays allocation-free with contexts live"
      (disabled_probe_is_free (fun i ->
           let sp = Probe.enter probe_phase in
           Probe.leave2 probe_phase sp i 0.5));
    t "disabled warning probe stays allocation-free with contexts live"
      (disabled_probe_is_free (fun i -> Probe.warn2 probe_warning i 0.5));
  ]

let epoch_tests =
  [
    t "a recreated forest restarts the trace clock" (fun () ->
        let burn () =
          let acc = ref 0.0 in
          for i = 1 to 200_000 do
            acc := !acc +. sqrt (float_of_int i)
          done;
          ignore !acc
        in
        let f1 = Trace.Forest.create () in
        burn ();
        let f2 = Trace.Forest.create () in
        Alcotest.(check bool)
          "later forest, later epoch" true
          (Trace.Forest.epoch f2 > Trace.Forest.epoch f1));
    t "reset restamps the ambient epoch" (fun () ->
        let f = Trace.current_forest () in
        let e0 = Trace.Forest.epoch f in
        let acc = ref 0.0 in
        for i = 1 to 200_000 do
          acc := !acc +. sqrt (float_of_int i)
        done;
        ignore !acc;
        Trace.reset ();
        Alcotest.(check bool)
          "epoch moved forward" true
          (Trace.Forest.epoch f > e0));
  ]

let seq_of_line line = J.field "seq" J.int (J.parse line)

let log_tests =
  [
    t "ring wraparound at a non-default capacity" (fun () ->
        let was = Log.enabled () in
        Log.set_enabled true;
        Log.set_level Log.Info;
        Fun.protect ~finally:(fun () -> Log.set_enabled was) @@ fun () ->
        let s = Log.Sink.create ~ring_capacity:8 () in
        Log.with_sink s (fun () ->
            for i = 1 to 20 do
              Log.info "test.ring" [ Log.int "i" i ]
            done);
        let tail = Log.Sink.tail s in
        Alcotest.(check int) "tail bounded by capacity" 8 (List.length tail);
        Alcotest.(check int) "seq counts every event" 20 (Log.Sink.seq s);
        (* Oldest first, consecutive, and ending at the last event. *)
        let seqs = List.map seq_of_line tail in
        Alcotest.(check (list int)) "last 8 events in order"
          [ 12; 13; 14; 15; 16; 17; 18; 19 ]
          seqs);
    t "two domains share one sink without tearing lines" (fun () ->
        let was = Log.enabled () in
        Log.set_enabled true;
        Log.set_level Log.Info;
        Fun.protect ~finally:(fun () -> Log.set_enabled was) @@ fun () ->
        let s = Log.Sink.create ~ring_capacity:64 () in
        let writer tag =
          Log.with_sink s (fun () ->
              for i = 1 to 100 do
                Log.info ("test.dom." ^ tag) [ Log.int "i" i; Log.str "t" tag ]
              done)
        in
        let d0 = Domain.spawn (fun () -> writer "a") in
        let d1 = Domain.spawn (fun () -> writer "b") in
        Domain.join d0;
        Domain.join d1;
        Alcotest.(check int) "every event counted" 200 (Log.Sink.seq s);
        let tail = Log.Sink.tail s in
        Alcotest.(check int) "ring full" 64 (List.length tail);
        (* Whole-line interleaving: every ring entry is valid JSON with
           the expected shape. *)
        List.iter
          (fun line ->
            let doc = J.parse line in
            (match J.field "event" J.str doc with
            | "test.dom.a" | "test.dom.b" -> ()
            | _ -> Alcotest.fail ("unexpected event in: " ^ line));
            ignore (seq_of_line line))
          tail);
    t "child sinks on two domains write whole lines through the parent's output" (fun () ->
        let was = Log.enabled () in
        Log.set_enabled true;
        Log.set_level Log.Info;
        Fun.protect ~finally:(fun () -> Log.set_enabled was) @@ fun () ->
        let file = Filename.temp_file "spatialdb_obs" ".jsonl" in
        let parent = Log.Sink.create () in
        Log.with_sink parent (fun () -> Log.open_file file);
        let writer tag =
          let s = Log.Sink.create ~ring_capacity:8 ~parent () in
          Log.with_sink s (fun () ->
              for i = 1 to 100 do
                Log.info ("test.out." ^ tag) [ Log.int "i" i ]
              done);
          s
        in
        let d0 = Domain.spawn (fun () -> writer "a") in
        let d1 = Domain.spawn (fun () -> writer "b") in
        let a = Domain.join d0 and b = Domain.join d1 in
        Log.with_sink parent Log.close_file;
        let lines =
          In_channel.with_open_text file In_channel.input_all
          |> String.split_on_char '\n'
          |> List.filter (( <> ) "")
        in
        Sys.remove file;
        Alcotest.(check (list int)) "one sequence, in file order" (List.init 200 Fun.id)
          (List.map seq_of_line lines);
        Alcotest.(check (pair int int)) "each child counts its own events" (100, 100)
          (Log.Sink.seq a, Log.Sink.seq b);
        Alcotest.(check int) "the parent's ring stays its own" 0
          (List.length (Log.Sink.tail parent)));
    t "sink merge appends tails and sums counters" (fun () ->
        let was = Log.enabled () in
        Log.set_enabled true;
        Log.set_level Log.Info;
        Fun.protect ~finally:(fun () -> Log.set_enabled was) @@ fun () ->
        let a = Log.Sink.create ~ring_capacity:16 () in
        let b = Log.Sink.create ~ring_capacity:16 () in
        Log.with_sink a (fun () -> Log.warn "test.merge.a" []);
        Log.with_sink b (fun () ->
            Log.info "test.merge.b" [];
            Log.error "test.merge.berr" []);
        Log.Sink.merge_into ~dst:a b;
        Alcotest.(check int) "events summed" 3 (Log.Sink.seq a);
        Alcotest.(check int) "warns summed" 1 (Log.Sink.warn_count a);
        Alcotest.(check int) "errors summed" 1 (Log.Sink.error_count a);
        Alcotest.(check int) "tail appended" 3 (List.length (Log.Sink.tail a)));
  ]

let prov_tests =
  [
    t "10k splits stay bounded by the table cap" (fun () ->
        let tbl = Rng.Provenance.Table.create ~cap:1000 () in
        Rng.Provenance.with_table tbl (fun () ->
            Rng.Provenance.set_tracking true;
            let root = Rng.create 7 in
            for _ = 1 to 10_000 do
              ignore (Rng.split root)
            done);
        Alcotest.(check int) "size capped" 1000 (Rng.Provenance.Table.size tbl);
        (* root + 10_000 splits registered, 1000 retained. *)
        Alcotest.(check int) "dropped accounted" 9001
          (Rng.Provenance.Table.dropped tbl));
    t "clear empties the ambient table" (fun () ->
        let tbl = Rng.Provenance.Table.create () in
        Rng.Provenance.with_table tbl (fun () ->
            Rng.Provenance.set_tracking true;
            ignore (Rng.create 3);
            Alcotest.(check bool) "tracked" true
              (Rng.Provenance.snapshot () <> []);
            Rng.Provenance.clear ();
            Alcotest.(check (list int)) "empty" []
              (List.map
                 (fun i -> i.Rng.Provenance.id)
                 (Rng.Provenance.snapshot ()))));
    t "merge re-roots nodes whose parent is in neither table" (fun () ->
        let a = Rng.Provenance.Table.create () in
        let orphan =
          Rng.Provenance.with_table a (fun () ->
              Rng.Provenance.set_tracking true;
              let root = Rng.create 11 in
              Rng.split root)
        in
        let b = Rng.Provenance.Table.create () in
        Rng.Provenance.with_table b (fun () ->
            Rng.Provenance.set_tracking true;
            (* Parent lives in [a], not in [b] or the destination. *)
            ignore (Rng.split orphan));
        let dst = Rng.Provenance.Table.create () in
        Rng.Provenance.Table.merge_into ~dst b;
        Rng.Provenance.with_table dst (fun () ->
            match Rng.Provenance.snapshot () with
            | [ n ] ->
                Alcotest.(check int) "re-rooted" (-1) n.Rng.Provenance.parent
            | l -> Alcotest.fail (Printf.sprintf "expected 1 node, got %d" (List.length l)));
        (* Merging into a table that does hold the parent keeps it. *)
        Rng.Provenance.Table.merge_into ~dst:a b;
        Rng.Provenance.with_table a (fun () ->
            let nodes = Rng.Provenance.snapshot () in
            Alcotest.(check int) "appended" 3 (List.length nodes);
            let last = List.nth nodes 2 in
            Alcotest.(check int) "parent preserved"
              (Rng.lineage orphan) last.Rng.Provenance.parent));
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
    ("obs.prov", prov_tests);
  ]
