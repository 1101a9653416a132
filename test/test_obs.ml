(* Tests for the observability contexts: merge laws (counter sum,
   exact histogram-quantile merge, empty-context identity), the
   2-domain differential (concurrent contexted runs merge to the same
   counters as sequential ones), the disabled hot path staying
   allocation-free with contexts in play, per-forest trace epochs,
   configurable log-ring capacity under concurrent writers, the
   bounded provenance table, and the status snapshot/JSON writer. *)

module Obs = Scdb_obs.Obs
module Tel = Scdb_telemetry.Telemetry
module Trace = Scdb_trace.Trace
module Log = Scdb_log.Log
module Rng = Scdb_rng.Rng
module J = Scdb_json.Json

let t name f = Alcotest.test_case name `Quick f

let with_tel f =
  let was = Tel.enabled () in
  Tel.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Tel.set_enabled was;
      Obs.Ctx.clear_directory ())
    f

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
        Fun.protect ~finally:(fun () ->
            Trace.set_enabled was;
            Obs.Ctx.clear_directory ())
        @@ fun () ->
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
        Fun.protect
          ~finally:(fun () ->
            Tel.set_enabled was;
            Obs.Ctx.clear_directory ())
        @@ fun () ->
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

let status_tests =
  [
    t "snapshot covers the directory and write is readable JSON" (fun () ->
        with_tel (fun () ->
            let c = Obs.Ctx.create ~name:"status-job" () in
            Obs.Ctx.run c (fun () -> Tel.Counter.add ctr_c 3);
            Obs.Ctx.set_ess c 12.5;
            Obs.Ctx.mark_done c;
            let rows = Obs.Status.snapshot () in
            Alcotest.(check bool) "default row present" true
              (List.exists (fun r -> r.Obs.Status.r_name = "default") rows);
            let r =
              List.find (fun r -> r.Obs.Status.r_name = "status-job") rows
            in
            Alcotest.(check bool) "done" true r.Obs.Status.r_done;
            Alcotest.(check (float 0.0)) "ess carried" 12.5
              (Option.get r.Obs.Status.r_ess);
            let path = Filename.temp_file "spatialdb_status" ".json" in
            Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
            Obs.Status.write path rows;
            let ic = open_in path in
            let s = really_input_string ic (in_channel_length ic) in
            close_in ic;
            match Obs.Status.of_json (J.parse s) with
            | Ok read ->
                Alcotest.(check int) "all rows read back" (List.length rows) (List.length read)
            | Error m -> Alcotest.fail m));
    t "of_json names the missing field of a truncated context" (fun () ->
        let doc =
          J.parse {|{"schema": "spatialdb-status/1", "ts": 1.0, "contexts": [{"name": "job0"}]}|}
        in
        Alcotest.(check (result int string))
          "typed error" (Error {|$.contexts[0]: missing field "done"|})
          (Result.map List.length (Obs.Status.of_json doc)));
  ]

let suites =
  [
    ("obs.merge", merge_tests);
    ("obs.alloc", alloc_tests);
    ("obs.epoch", epoch_tests);
    ("obs.log", log_tests);
    ("obs.prov", prov_tests);
    ("obs.status", status_tests);
  ]
