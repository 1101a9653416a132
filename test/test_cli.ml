(* End-to-end exit-code tests for the spatialdb binary.

   The convention under test (see bin/spatialdb.ml): 2 for usage/value
   errors with the valid choices listed, 1 for runtime errors (parse
   failures, empty relations), cmdliner's 124 for malformed command
   lines, 0 on success.  The binary is a declared dune dependency of
   the test runner, sitting at ../bin/spatialdb.exe relative to it. *)

module J = Scdb_json.Json

let t name f = Alcotest.test_case name `Quick f

let binary =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "spatialdb.exe")

let run args = Sys.command (Filename.quote binary ^ " " ^ args ^ " >/dev/null 2>&1")

let fig1 = "-v x,y -f \"x >= 0 /\\ y >= 0 /\\ x + y <= 1\""

let check name expected args = Alcotest.(check int) name expected (run args)

(* The Fig. 1 union the audit walkthrough in EXPERIMENTS.md runs on. *)
let fig1_union =
  "-v x,y -f \"(x >= 0 and y >= 0 and x + y <= 1) or (x >= 2 and x <= 3 and y >= 0 and y <= 1)\""

(* Exit code and stderr of one invocation. *)
let run_stderr args =
  let err = Filename.temp_file "spatialdb_cli" ".err" in
  let code =
    Sys.command (Filename.quote binary ^ " " ^ args ^ " >/dev/null 2>" ^ Filename.quote err)
  in
  let ic = open_in err in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove err;
  (code, text)

(* Exit code and stdout of one invocation. *)
let run_stdout args =
  let out = Filename.temp_file "spatialdb_cli" ".out" in
  let code = Sys.command (Filename.quote binary ^ " " ^ args ^ " 2>/dev/null >" ^ Filename.quote out) in
  let ic = open_in out in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove out;
  (code, text)

(* 10^400: exact volumes built from it have parts beyond the float range. *)
let z400 = "1" ^ String.make 400 '0'

let success_tests =
  [
    t "binary exists where the test expects it" (fun () ->
        Alcotest.(check bool) binary true (Sys.file_exists binary));
    t "explain exits 0 (tree and json)" (fun () ->
        check "tree" 0 ("explain " ^ fig1);
        check "json" 0 ("explain " ^ fig1 ^ " --format json");
        check "volume task" 0 ("explain " ^ fig1 ^ " --task volume"));
    t "volume --mode exact exits 0" (fun () -> check "exact" 0 ("volume " ^ fig1 ^ " --mode exact"));
    t "volume --mode exact converts a rational with huge parts" (fun () ->
        (* [0, (10^400+1)/10^400] x [0,1]: the volume is about 1. *)
        let code, out =
          run_stdout
            (Printf.sprintf
               "volume -v x,y -f \"0 <= x and %s*x <= %s1 and 0 <= y and y <= 1\" --mode exact" z400
               (String.sub z400 0 400))
        in
        Alcotest.(check int) "exit" 0 code;
        Alcotest.(check string) "volume" "1.000000000\n" out);
    t "volume prints a volume below 10^-3 with 6 significant digits" (fun () ->
        (* Area 5e-9: six fixed decimals would print 0.000000. *)
        let tiny = "volume -v x,y -f \"x >= 0 /\\ y >= 0 /\\ x + y <= 0.0001\" --seed 1 " in
        let value mode =
          let code, out = run_stdout (tiny ^ mode) in
          Alcotest.(check int) (mode ^ " exit") 0 code;
          out
        in
        Alcotest.(check string) "exact" "5e-09\n" (value "--mode exact");
        List.iter
          (fun mode ->
            let v = float_of_string (String.trim (value mode)) in
            Alcotest.(check bool) (Printf.sprintf "%s: %g within 10%% of 5e-9" mode v) true
              (Float.abs (v -. 5e-9) <= 5e-10))
          [ "--mode sampling --eps 0.3"; "--mode grid:0.00001" ]);
    t "sample and volume run on a box with over-range coefficients" (fun () ->
        (* The same box: its float rows are scaled into range. *)
        let f =
          Printf.sprintf "-v x,y -f \"0 <= x and %s*x <= %s1 and 0 <= y and y <= 1\"" z400
            (String.sub z400 0 400)
        in
        check "sample" 0 ("sample " ^ f ^ " -n 3 --seed 1");
        check "volume" 0 ("volume " ^ f ^ " --seed 1 --eps 0.3"));
  ]

let usage_tests =
  [
    t "unknown volume mode exits 2" (fun () ->
        check "mode" 2 ("volume " ^ fig1 ^ " --mode bogus"));
    t "unknown sample method exits 2" (fun () ->
        check "method" 2 ("sample " ^ fig1 ^ " --method bogus"));
    t "unknown explain format/task exit 2" (fun () ->
        check "format" 2 ("explain " ^ fig1 ^ " --format bogus");
        check "program" 2 ("explain " ^ fig1 ^ " --format program");
        check "task" 2 ("explain " ^ fig1 ^ " --task bogus"));
    t "unknown report format exits 2" (fun () ->
        check "format" 2 ("report " ^ fig1 ^ " --format bogus"));
    t "unknown log level exits 2" (fun () ->
        check "level" 2 ("sample " ^ fig1 ^ " -n 1 --log-level bogus"));
    t "the retired vm engine exits 2, naming interp and vm-opt" (fun () ->
        List.iter
          (fun cmd ->
            let code, err = run_stderr (cmd ^ " " ^ fig1 ^ " --engine vm") in
            Alcotest.(check (pair int string))
              cmd
              (2, "spatialdb: unknown engine \"vm\" (expected one of: interp, vm-opt)\n")
              (code, err))
          [ "sample -n 1"; "report -n 1"; "explain" ]);
    t "audit rejects starved fault-injection budgets" (fun () ->
        let audit = "audit " ^ fig1_union ^ " --oracle exact --runs 2 " in
        check "phase-samples 0" 2 (audit ^ "--phase-samples 0");
        check "phase-samples -5" 2 (audit ^ "--phase-samples=-5");
        check "walk-steps -3" 2 (audit ^ "--walk-steps=-3"));
    t "eps and delta outside (0,1) exit 2 on every command" (fun () ->
        List.iter
          (fun (cmd, bad) -> check (cmd ^ " " ^ bad) 2 (cmd ^ " " ^ fig1 ^ " " ^ bad))
          [
            ("sample -n 1", "--eps 0");
            ("sample -n 1", "--delta 1");
            ("report -n 1", "--eps 1.5");
            ("audit --runs 2 --oracle exact", "--delta=-0.1");
            ("volume", "--eps 0");
            ("volume", "--eps 1.5");
            ("volume", "--delta 1.5");
            ("explain", "--eps 0");
            ("explain", "--eps nan");
          ]);
    t "counts below 1 exit 2" (fun () ->
        check "sample --diag --chains 0" 2 ("sample " ^ fig1 ^ " -n 1 --diag --chains 0");
        check "report --chains 0" 2 ("report " ^ fig1 ^ " -n 1 --chains 0");
        check "audit --runs 0" 2 ("audit " ^ fig1 ^ " --oracle exact --runs 0");
        check "reconstruct -n 0" 2 ("reconstruct " ^ fig1 ^ " -n 0");
        check "audit --jobs 0" 2 ("audit " ^ fig1 ^ " --oracle exact --runs 2 --jobs 0"));
    t "negative sample counts exit 2, zero runs" (fun () ->
        List.iter
          (fun (cmd, n) ->
            Alcotest.(check (pair int string))
              (cmd ^ " -n " ^ n)
              (2, Printf.sprintf "spatialdb: -n must be >= 0 (got %s)\n" n)
              (run_stderr (Printf.sprintf "%s %s --samples=%s" cmd fig1 n)))
          [ ("sample", "-3"); ("report", "-1"); ("explain", "-5") ];
        check "sample -n 0" 0 ("sample " ^ fig1 ^ " -n 0");
        check "explain -n 0" 0 ("explain " ^ fig1 ^ " -n 0"));
    t "audit --jobs above the runtime's domain cap exits 2" (fun () ->
        (* Refused while parsing the flags, before any domain starts. *)
        Alcotest.(check (pair int string))
          "exit and message"
          (2, "spatialdb: --jobs must be in [1, 127] (got 1000)\n")
          (run_stderr ("audit " ^ fig1 ^ " --oracle exact --runs 2 --jobs 1000")));
    t "audit confidence and gamma outside (0,1) exit 2" (fun () ->
        let audit = "audit " ^ fig1_union ^ " --oracle exact --runs 2 " in
        check "confidence 1.5" 2 (audit ^ "--confidence 1.5");
        check "gamma 0" 2 (audit ^ "--gamma 0");
        check "gamma 10" 2 (audit ^ "--gamma 10"));
    t "volume grid resolution must be a finite positive number" (fun () ->
        List.iter
          (fun g -> check g 2 ("volume " ^ fig1 ^ " --mode grid:" ^ g))
          [ "abc"; "0"; "-1"; "nan"; "inf" ];
        check "grid:0.1" 0 ("volume " ^ fig1 ^ " --mode grid:0.1"));
  ]

let cmdline_tests =
  [
    t "unknown flag exits 124" (fun () ->
        check "flag" 124 ("explain " ^ fig1 ^ " --bogus-flag");
        (* The status and Prometheus views are gone with their flags. *)
        List.iter
          (fun flag -> check flag 124 ("sample " ^ fig1 ^ " -n 1 " ^ flag))
          [ "--live"; "--status-out F"; "--metrics-out F"; "--metrics-interval 1" ];
        (* Whole-query repetitions and job modes are gone; only audit
           deals replicates to domains. *)
        List.iter
          (fun args -> check args 124 args)
          [
            "sample " ^ fig1 ^ " -n 1 --jobs 2";
            "sample " ^ fig1 ^ " -n 1 --jobs-mode seq";
            "audit " ^ fig1 ^ " --oracle exact --runs 2 --jobs 2 --jobs-mode seq";
          ];
        (* The watchdog factor is fixed at 4 on every command. *)
        List.iter
          (fun cmd ->
            check (cmd ^ " --overrun-factor") 124 (cmd ^ " " ^ fig1 ^ " --overrun-factor 4"))
          [ "sample"; "volume"; "report" ]);
    t "sample --jobs with --progress exits 124" (fun () ->
        (* With whole-query repetitions gone, --jobs is unknown to
           sample, so the clash with --progress is a malformed command
           line rather than a refused combination. *)
        check "--jobs 2 --progress" 124 ("sample " ^ fig1_union ^ " -n 5 --jobs 2 --progress");
        check "--progress alone" 0 ("sample " ^ fig1_union ^ " -n 5 --progress"));
    t "unknown subcommand exits 124" (fun () ->
        check "subcommand" 124 "frobnicate";
        check "status" 124 "status F");
    t "missing required arguments exit 124" (fun () -> check "no args" 124 "sample");
  ]

let runtime_tests =
  [
    t "formula parse error exits 1" (fun () ->
        check "parse" 1 "explain -v x -f \"x >= nonsense\"");
    t "empty relation exits 1" (fun () ->
        check "empty" 1 "sample -v x -f \"x >= 1 /\\ x <= 0\" -n 1");
    t "duplicate --vars names exit 1 naming the variable" (fun () ->
        Alcotest.(check (pair int string))
          "exit and message"
          (1, "spatialdb: duplicate variable x in --vars\n")
          (run_stderr "sample -v x,x -f \"x >= 0 and x <= 1\""));
    t "explain refuses a lower-dimensional relation as sample does" (fun () ->
        let segment = "-v x,y -f \"0 <= x <= 1 /\\ y = 0\"" in
        let sample = run_stderr ("sample " ^ segment ^ " -n 1") in
        let explain = run_stderr ("explain " ^ segment) in
        Alcotest.(check int) "sample exits 1" 1 (fst sample);
        Alcotest.(check (pair int string)) "explain = sample" sample explain);
    t "audit reports an exact truth beyond the float range" (fun () ->
        let code, err =
          run_stderr
            (Printf.sprintf
               "audit -v x,y -f \"0 <= x and x <= %s and 0 <= y and y <= 1\" --oracle exact --runs 2"
               z400)
        in
        Alcotest.(check int) "exit" 1 code;
        Alcotest.(check string) "message"
          "spatialdb: exact volume inf lies beyond the float range; nothing to audit\n" err);
    t "audit with a starved phase budget still fails the contract" (fun () ->
        (* The fault-injection demo of EXPERIMENTS.md: a positive budget
           is accepted, and starving it is caught. *)
        check "phase-samples 5" 1
          ("audit " ^ fig1_union ^ " --seed 42 --runs 20 --oracle exact --phase-samples 5"));
    t "an unbounded tuple in a union fails every command" (fun () ->
        (* A half-plane (infinite Chebyshev ball) and a half-strip (ball
           of radius 1/2) beside the unit box: both unions have
           infinite measure. *)
        List.iter
          (fun tail ->
            let f = "-v x,y -f \"(x>=0 and x<=1 and y>=0 and y<=1) or " ^ tail ^ "\" --seed 1" in
            List.iter
              (fun cmd ->
                let code, err = run_stderr (cmd ^ " " ^ f) in
                Alcotest.(check (pair int string))
                  (cmd ^ " on " ^ tail)
                  (1, "spatialdb: relation is unbounded\n")
                  (code, err))
              [ "sample -n 3"; "sample -n 3 --engine vm-opt"; "volume"; "report -n 3" ])
          [ "x >= 5"; "(y >= 0 and y <= 1 and x >= 5)" ]);
    t "a union keeps sampling without its lower-dimensional tuples" (fun () ->
        (* A segment and a ray are measure zero: dropped, not refused. *)
        List.iter
          (fun tail ->
            let code, out =
              run_stdout
                ("sample -v x,y -f \"(0 <= x and x <= 1 and 0 <= y and y <= 1) or " ^ tail
               ^ "\" -n 3 --seed 1")
            in
            Alcotest.(check int) ("exit on " ^ tail) 0 code;
            Alcotest.(check int) ("points on " ^ tail) 3
              (List.length (List.filter (( <> ) "") (String.split_on_char '\n' out))))
          [ "(0 <= x and x <= 1 and y = 0)"; "(y = 0 and x >= 5)" ]);
    t "sample writes its log events to --log-out in seq order" (fun () ->
        let log = Filename.temp_file "spatialdb_log" ".jsonl" in
        let code =
          run
            (Printf.sprintf "sample %s -n 3 --log-level info --log-out %s" fig1_union
               (Filename.quote log))
        in
        let events =
          In_channel.with_open_text log In_channel.input_all
          |> String.split_on_char '\n'
          |> List.filter (( <> ) "")
          |> List.map (fun l ->
                 let doc = J.parse l in
                 (J.field "seq" J.int doc, J.field "event" J.str doc))
        in
        Sys.remove log;
        Alcotest.(check int) "exit" 0 code;
        Alcotest.(check (list (pair int string)))
          "events" [ (0, "sample.run"); (1, "sample.done") ] events);
    t "audit on two domains equals audit on one" (fun () ->
        (* The replicates of two domains and of one write the same
           estimates, verdict, counters and histogram counts. *)
        let audit jobs =
          let out = Filename.temp_file "spatialdb_audit" ".json" in
          let stats = Filename.temp_file "spatialdb_stats" ".json" in
          let code =
            run
              (Printf.sprintf "audit %s --seed 42 --runs 6 --jobs %d --oracle exact --out %s \
                               --stats-out %s"
                 fig1_union jobs (Filename.quote out) (Filename.quote stats))
          in
          Alcotest.(check int) (Printf.sprintf "--jobs %d exits 0" jobs) 0 code;
          let doc = J.of_file out Fun.id and dump = J.of_file stats Fun.id in
          Sys.remove out;
          Sys.remove stats;
          match (doc, dump) with
          | Ok doc, Ok dump ->
              let histogram_counts =
                J.field "histograms" (J.obj (J.field "count" J.int)) dump
              in
              ( J.field "estimates" (J.list J.num) doc,
                J.field "verdict" J.str doc,
                J.field "counters" (J.obj J.int) dump,
                histogram_counts )
          | Error m, _ | _, Error m -> Alcotest.failf "unreadable output: %s" m
        in
        let e1, v1, c1, h1 = audit 1 and e2, v2, c2, h2 = audit 2 in
        Alcotest.(check (list (float 0.0))) "estimates" e1 e2;
        Alcotest.(check string) "verdict" v1 v2;
        Alcotest.(check (list (pair string int))) "counters" c1 c2;
        Alcotest.(check (list (pair string int))) "histogram counts" h1 h2;
        Alcotest.(check (option int)) "replicates counted" (Some 6)
          (List.assoc_opt "audit.replicates" c2));
  ]

(* The profiler flags are unknown options; the per-plan-node table
   comes from --progress. *)
let profile_tests =
  [
    t "--profile-out and replay --engine exit 124" (fun () ->
        check "profile-out" 124 ("sample " ^ fig1 ^ " -n 2 --profile-out /dev/null");
        check "replay --engine" 124 "replay --engine interp record.flightrec.json");
    t "sample --profile is an unknown option under both engines" (fun () ->
        check "interp" 124 ("sample " ^ fig1 ^ " -n 2 --profile");
        check "vm-opt" 124 ("sample " ^ fig1 ^ " -n 2 --engine vm-opt --profile=counting"));
    t "report --engine vm-opt exits 0, interp rejects bogus engine" (fun () ->
        check "vm-opt" 0 ("report " ^ fig1 ^ " -n 2 --engine vm-opt -o /dev/null");
        check "bogus" 2 ("report " ^ fig1 ^ " -n 2 --engine bogus"));
    t "sample --profile prints only an error (exit 124); --progress prints the one per-node table"
      (fun () ->
        Alcotest.(check int) "--profile" 124
          (fst (run_stderr ("sample " ^ fig1_union ^ " -n 200 --seed 42 --engine vm-opt --profile")));
        (* The Fig. 1 union plans three nodes: one table header and one
           line naming each node's operator (the ticker's own line,
           which names them too, ends with a carriage return). *)
        let code, err =
          run_stderr ("sample " ^ fig1_union ^ " -n 200 --seed 42 --engine vm-opt --progress")
        in
        Alcotest.(check int) "exit" 0 code;
        let lines =
          List.filter_map
            (fun l -> if String.contains l '\r' then None else Some (String.split_on_char ' ' l))
            (String.split_on_char '\n' err)
        in
        let count p = List.length (List.filter (List.exists p) lines) in
        Alcotest.(check int) "one header" 1 (count (( = ) "predicted"));
        Alcotest.(check int) "one union row" 1 (count (( = ) "union"));
        Alcotest.(check int) "two dfk rows" 2 (count (( = ) "dfk")));
  ]

(* The standard d-simplex, spelled for the command line. *)
let simplex d =
  let vars = List.init d (fun i -> Printf.sprintf "x%d" (i + 1)) in
  Printf.sprintf "-v %s -f \"%s and %s <= 1\"" (String.concat "," vars)
    (String.concat " and " (List.map (fun v -> v ^ " >= 0") vars))
    (String.concat " + " vars)

let contains text pat =
  let n = String.length text and k = String.length pat in
  let rec go i = i + k <= n && (String.sub text i k = pat || go (i + 1)) in
  go 0

let exact_sampler_tests =
  [
    t "a vm-opt record of the 6-simplex replays bit-for-bit" (fun () ->
        let record = Filename.temp_file "spatialdb_simplex6" ".flightrec.json" in
        check "record" 0
          ("sample " ^ simplex 6 ^ " -n 20 --seed 42 --engine vm-opt --record " ^ Filename.quote record);
        let code, out = run_stdout ("replay " ^ Filename.quote record) in
        Sys.remove record;
        Alcotest.(check int) "replay" 0 code;
        Alcotest.(check bool) out true (contains out "bit-for-bit"));
    t "explain --format program now exits 2; --format json names the 6-simplex leaf exact_sampler"
      (fun () ->
        check "program" 2 ("explain " ^ simplex 6 ^ " -n 200 --engine vm-opt --format program");
        let code, out =
          run_stdout ("explain " ^ simplex 6 ^ " -n 200 --engine vm-opt --format json")
        in
        Alcotest.(check int) "exit" 0 code;
        match J.field "root" (J.field "draws" (J.field "route" J.str)) (J.parse out) with
        | route -> Alcotest.(check string) "draw route" "exact_sampler" route
        | exception _ -> Alcotest.fail ("no draw route in:\n" ^ out));
    t "the 8-simplex leaf spends the work its plan predicts" (fun () ->
        let code, err =
          run_stderr ("sample " ^ simplex 8 ^ " -n 200 --seed 42 --engine vm-opt --progress")
        in
        Alcotest.(check int) "exit" 0 code;
        let row =
          List.find_opt
            (fun l -> match l with "0" :: "dfk" :: _ -> true | _ -> false)
            (List.map
               (fun l -> List.filter (( <> ) "") (String.split_on_char ' ' l))
               (String.split_on_char '\n' err))
        in
        match row with
        | Some (_ :: _ :: _ :: _ :: ratio :: _) ->
            let r = float_of_string ratio in
            Alcotest.(check bool) (Printf.sprintf "leaf ratio %g in [0.9, 1.1]" r) true
              (r >= 0.9 && r <= 1.1)
        | _ -> Alcotest.fail ("no leaf row in:\n" ^ err));
  ]

let suites =
  [
    ("cli.success", success_tests);
    ("cli.usage", usage_tests);
    ("cli.cmdline", cmdline_tests);
    ("cli.runtime", runtime_tests);
    ("cli.profile", profile_tests);
    ("cli.exact_sampler", exact_sampler_tests);
  ]
