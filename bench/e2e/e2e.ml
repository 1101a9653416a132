(* End-to-end query benchmark.

     e2e.exe --workload W [--seed S] [--seconds T] [--trace 0|1] [--spans FILE] [--out FILE]
     e2e.exe [--seed S] [--seconds T] [--trace 0|1] [--out FILE]     (every workload)
     e2e.exe --smoke [--bench BENCHMARK.json]
     e2e.exe compare A1.json … -- B1.json … [--bench BENCHMARK.json]

   One workload runs as one client in a closed loop for T seconds of
   whole rounds, on one domain, with telemetry, tracing and logging off
   as the CLI runs by default.  The last line of standard output is the
   result: {"correct", "attempted", "failed", "metrics"}, the
   end-to-end metrics under --trace 0 and the per-layer metrics under
   --trace 1.  Without --workload every workload runs in turn, each in
   a fresh child process so heap peak and GC state are its own.  The
   exit code is non-zero when any check fails. *)

module Tel = Scdb_telemetry.Telemetry
module Json = Scdb_trace.Json_min
module W = Workloads

let default_seconds = 25.0

type budget = Seconds of float | Rounds of int

type outcome = {
  text : string;  (** human-readable report *)
  e2e : (string * string * float) list;  (** end-to-end metrics, from the untraced segment *)
  layers : (string * string * float) list;  (** per-layer metrics; empty unless traced *)
  attempted : int;
  failed : int;
  correct : bool;
}

let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let result_json ~correct ~attempted ~failed metrics =
  let metric (name, unit, v) =
    Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (json_num v) unit
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed
    (String.concat ", " (List.map metric metrics))

let stop_of = function Seconds s -> W.timed s | Rounds n -> W.fixed_rounds n

let config_table buf (configs : W.config array) (seg : W.segment) =
  Printf.bprintf buf "  %-22s %5s %12s %12s\n" "configuration" "reqs" "p50 ms" "max ms";
  Array.iteri
    (fun k (c : W.config) ->
      let ls = W.latencies seg k in
      Printf.bprintf buf "  %-22s %5d %12.3f %12.3f\n" c.W.label (List.length ls)
        (1000.0 *. Stats.median ls)
        (1000.0 *. List.fold_left Float.max 0.0 ls))
    configs

let accuracy_metrics (a : W.accuracy) =
  [
    ("rel_err_p90", "1", a.W.rel_err_p90);
    ("contract_miss_frac", "1", a.W.contract_miss_frac);
    ("cell_tv", "1", a.W.cell_tv);
    ("fail_frac", "1", a.W.fail_frac);
  ]

(* Set up, then run the traced segment (fixed rounds, when [trace]) and
   the untraced one (the rest of [budget]).  End-to-end metrics come
   from the untraced segment only. *)
let run_one ~profile ~(w : W.workload) ~seed ~budget ~traced_rounds ~trace ~spans_out =
  Tel.set_enabled false;
  Tracer.enabled := false;
  let buf = Buffer.create 4096 in
  (* Cheap set-ups are repeated more: their median needs the samples. *)
  let setup_times = ref [] and configs = ref [||] in
  while
    let n = List.length !setup_times in
    n < profile.W.setups
    || (n < 3 * profile.W.setups && List.fold_left ( +. ) 0.0 !setup_times < profile.W.setup_seconds)
  do
    let t0 = W.now () in
    configs := w.W.setup profile ~seed;
    setup_times := (W.now () -. t0) :: !setup_times
  done;
  let configs = !configs in
  let setup_s = Stats.median !setup_times in
  let segment ~traced stop = W.run_segment ~workload:w.W.name ~seed ~traced configs ~stop in
  let eps = profile.W.eps and delta = profile.W.delta in
  Printf.bprintf buf "e2e %s seed=%d trace=%d setup_s=%.4f (median of %d: %s)\n" w.W.name seed
    (if trace then 1 else 0) setup_s (List.length !setup_times)
    (String.concat " " (List.rev_map (Printf.sprintf "%.3f") !setup_times));
  let report name (seg : W.segment) =
    Printf.bprintf buf "%s: %d requests in %.2f s, %d failed\n" name (List.length seg.W.requests)
      seg.W.elapsed (W.failed seg);
    config_table buf configs seg;
    let a = W.accuracy configs seg ~eps ~delta in
    Printf.bprintf buf "accuracy: rel_err_p90=%.4f contract_miss_frac=%.4f cell_tv=%.4f fail_frac=%.4f\n"
      a.W.rel_err_p90 a.W.contract_miss_frac a.W.cell_tv a.W.fail_frac;
    List.iter (fun p -> Printf.bprintf buf "CHECK FAILED: %s\n" p) a.W.problems;
    a
  in
  let traced =
    if not trace then None
    else begin
      Tracer.reset ();
      Tel.reset ();
      Tel.set_enabled true;
      Tracer.enabled := true;
      let seg = segment ~traced:true (W.fixed_rounds traced_rounds) in
      Tracer.enabled := false;
      Tel.set_enabled false;
      let spans = Tracer.spans () in
      Option.iter (fun path -> Tracer.write_json path spans) spans_out;
      let n_req = List.length seg.W.requests in
      let prepares =
        float_of_int (List.length (List.filter (fun s -> s.Tracer.name = "core.prepare") spans))
      in
      let rng_draws = float_of_int (List.fold_left (fun acc r -> acc + r.W.draws) 0 seg.W.requests) in
      let counters = W.counter_ratios ~n_req ~prepares ~rng_draws in
      Some (seg, report "traced" seg, spans, counters)
    end
  in
  let budget =
    match (budget, traced) with
    | Seconds s, Some (seg, _, _, _) -> Seconds (s -. seg.W.elapsed)
    | b, _ -> b
  in
  let untraced = segment ~traced:false (stop_of budget) in
  let untraced_acc = report "untraced" untraced in
  let e2e =
    [
      ("setup_s", "s", setup_s);
      ("req_p50_s", "s", W.req_p50 configs untraced);
      ("req_per_s", "1/s", W.req_per_s configs untraced);
      ("peak_heap_mb", "MB", W.peak_heap_mb untraced);
    ]
  in
  let segments, problems, layers =
    match traced with
    | None -> ([ untraced ], untraced_acc.W.problems, [])
    | Some (seg, acc, spans, counters) ->
        let rates = W.draw_rates configs untraced in
        let _, bulk_dim, _ = profile.W.dims in
        let rate relation engine =
          Option.value (List.assoc_opt (relation ^ "/" ^ engine) rates) ~default:0.0
        in
        let simplex = Printf.sprintf "simplex%d" bulk_dim in
        let layers = Tracer.layer_metrics spans ~n_req:(List.length seg.W.requests) in
        Printf.bprintf buf "self_share sum over layers: %.4f\n"
          (List.fold_left
             (fun acc (n, _, v) -> if String.ends_with ~suffix:".self_share" n then acc +. v else acc)
             0.0 layers);
        ( [ seg; untraced ],
          acc.W.problems @ untraced_acc.W.problems,
          layers @ counters
          @ [
              ("req_p90_s", "s", Stats.p90 (List.map (fun r -> r.W.latency) untraced.W.requests));
              ("ttfp_p50_s", "s", Stats.median (Tracer.ttfp spans));
              ("draws_per_s", "1/s", Stats.geomean (List.map snd rates));
              ("draws_per_s.union.interp", "1/s", rate "union" "interp");
              ("draws_per_s.union.vm-opt", "1/s", rate "union" "vm-opt");
              ("draws_per_s.simplex8.interp", "1/s", rate simplex "interp");
              ("draws_per_s.simplex8.vm-opt", "1/s", rate simplex "vm-opt");
              ("trace_overhead", "1", Stats.ratio (W.req_p50 configs seg) (W.req_p50 configs untraced));
            ]
          @ accuracy_metrics acc )
  in
  let attempted = List.fold_left (fun acc s -> acc + List.length s.W.requests) 0 segments in
  let failed = List.fold_left (fun acc s -> acc + W.failed s) 0 segments in
  let problems =
    problems
    @ List.filter_map
        (fun (n, _, v) -> if Float.is_finite v then None else Some (n ^ " is not finite"))
        (e2e @ layers)
  in
  List.iter
    (fun (n, u, v) -> Printf.bprintf buf "  %-36s %16.6g %s\n" n v u)
    (if trace then layers else e2e);
  { text = Buffer.contents buf; e2e; layers; attempted; failed; correct = problems = [] && failed = 0 }

let result_of ~trace o =
  result_json ~correct:o.correct ~attempted:o.attempted ~failed:o.failed
    (if trace then o.layers else o.e2e)

(* A result document: one result line per workload, the input of
   [compare]. *)
let write_doc path ~seed ~seconds ~trace results =
  let oc = open_out path in
  Printf.fprintf oc
    "{\"schema\": \"spatialdb-e2e/1\", \"seed\": %d, \"seconds\": %s, \"trace\": %d, \
     \"workloads\": {\n%s\n}}\n"
    seed (json_num seconds)
    (if trace then 1 else 0)
    (String.concat ",\n" (List.map (fun (w, r) -> Printf.sprintf "  \"%s\": %s" w r) results));
  close_out oc

(* Every workload in turn, each in its own child process. *)
let run_all ~seed ~seconds ~trace ~out =
  let results =
    List.map
      (fun (w : W.workload) ->
        let args =
          [|
            Sys.executable_name; "--workload"; w.W.name; "--seed"; string_of_int seed; "--seconds";
            json_num seconds; "--trace"; (if trace then "1" else "0");
          |]
        in
        let ic = Unix.open_process_args_in Sys.executable_name args in
        let last = ref "" in
        (try
           while true do
             let line = input_line ic in
             print_endline line;
             last := line
           done
         with End_of_file -> ());
        let status = Unix.close_process_in ic in
        let result =
          match Json.parse !last with doc -> Some doc | exception Json.Parse_error _ -> None
        in
        let ok =
          status = Unix.WEXITED 0
          && Option.bind result (Json.member "correct") = Some (Json.Bool true)
        in
        (w.W.name, (if result = None then "null" else !last), ok))
      W.all
  in
  Option.iter
    (fun path -> write_doc path ~seed ~seconds ~trace (List.map (fun (w, r, _) -> (w, r)) results))
    out;
  if List.for_all (fun (_, _, ok) -> ok) results then 0
  else begin
    List.iter (fun (w, _, ok) -> if not ok then Printf.eprintf "e2e: workload %s failed\n" w) results;
    1
  end

(* Two requests per configuration of every workload, one traced and
   one untraced, through every check at the smoke profile's cost; the
   results must carry exactly the metrics BENCHMARK.json names, and a
   result compared with itself must flag nothing. *)
let smoke ~bench =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  let spec = Spec.read bench in
  let names metrics = List.sort compare (List.map (fun (n, _, _) -> n) metrics) in
  let want ms = List.sort compare (List.map (fun (m : Spec.metric) -> m.Spec.name) ms) in
  let results =
    List.map
      (fun (w : W.workload) ->
        let o =
          run_one ~profile:W.smoke ~w ~seed:1 ~budget:(Rounds 1) ~traced_rounds:1 ~trace:true
            ~spans_out:None
        in
        if not o.correct then fail "%s is not correct:\n%s" w.W.name o.text;
        if names o.e2e <> want spec.Spec.end_to_end then
          fail "%s: end-to-end metrics differ from BENCHMARK.json" w.W.name;
        if names o.layers <> want spec.Spec.per_layer then
          fail "%s: per-layer metrics differ from BENCHMARK.json" w.W.name;
        o)
      W.all
  in
  List.iter
    (fun trace ->
      let doc =
        List.map2 (fun (w : W.workload) o -> (w.W.name, Json.parse (result_of ~trace o))) W.all results
      in
      let rows = Compare.rows spec [ doc ] [ doc ] in
      if rows = [] || Compare.flagged rows <> [] then
        fail "compare of a result with itself flags metrics")
    [ false; true ];
  match !failures with
  | [] ->
      print_endline "e2e smoke: ok";
      0
  | fs ->
      List.iter prerr_endline (List.rev fs);
      1

let usage () =
  prerr_endline
    "usage: e2e.exe [--workload W] [--seed S] [--seconds T] [--trace 0|1] [--spans FILE] [--out FILE]\n\
    \       e2e.exe --smoke [--bench BENCHMARK.json]\n\
    \       e2e.exe compare A1.json … -- B1.json … [--bench BENCHMARK.json]";
  2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let bench = ref "BENCHMARK.json" in
  let rec strip_bench = function
    | "--bench" :: f :: rest ->
        bench := f;
        strip_bench rest
    | x :: rest -> x :: strip_bench rest
    | [] -> []
  in
  let args = strip_bench args in
  let code =
    match args with
    | "compare" :: rest -> Compare.main ~bench:!bench rest
    | [ "--smoke" ] -> smoke ~bench:!bench
    | _ -> (
        let workload = ref None and seed = ref 1 and seconds = ref default_seconds in
        let trace = ref false and spans = ref None and out = ref None in
        let rec parse = function
          | "--workload" :: w :: rest ->
              workload := Some w;
              parse rest
          | "--seed" :: s :: rest ->
              seed := int_of_string s;
              parse rest
          | "--seconds" :: s :: rest ->
              seconds := float_of_string s;
              parse rest
          | "--trace" :: ("0" | "1" as t) :: rest ->
              trace := t = "1";
              parse rest
          | "--spans" :: f :: rest ->
              spans := Some f;
              parse rest
          | "--out" :: f :: rest ->
              out := Some f;
              parse rest
          | [] -> true
          | _ -> false
        in
        match parse args with
        | exception Failure _ -> usage ()
        | false -> usage ()
        | true -> (
            match !workload with
            | None -> run_all ~seed:!seed ~seconds:!seconds ~trace:!trace ~out:!out
            | Some name -> (
                match W.find name with
                | None ->
                    Printf.eprintf "e2e: unknown workload %s (%s)\n" name
                      (String.concat ", " (List.map (fun (w : W.workload) -> w.W.name) W.all));
                    2
                | Some w ->
                    let o =
                      run_one ~profile:W.full ~w ~seed:!seed ~budget:(Seconds !seconds)
                        ~traced_rounds:w.W.trace_rounds ~trace:!trace ~spans_out:!spans
                    in
                    let result = result_of ~trace:!trace o in
                    print_string o.text;
                    print_endline result;
                    Option.iter
                      (fun path ->
                        write_doc path ~seed:!seed ~seconds:!seconds ~trace:!trace [ (name, result) ])
                      !out;
                    if o.correct then 0 else 1)))
  in
  exit code
