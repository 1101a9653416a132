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
        check "task" 2 ("explain " ^ fig1 ^ " --task bogus"));
    t "unknown report format exits 2" (fun () ->
        check "format" 2 ("report " ^ fig1 ^ " --format bogus"));
    t "unknown log level exits 2" (fun () ->
        check "level" 2 ("sample " ^ fig1 ^ " -n 1 --log-level bogus"));
    t "unknown profile mode exits 2" (fun () ->
        check "sample" 2 ("sample " ^ fig1 ^ " -n 1 --engine vm --profile=bogus"));
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
        check "sample --jobs 0" 2 ("sample " ^ fig1 ^ " -n 1 --jobs 0");
        check "audit --jobs 0" 2 ("audit " ^ fig1 ^ " --oracle exact --runs 2 --jobs 0"));
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
          [ "--live"; "--status-out F"; "--metrics-out F"; "--metrics-interval 1" ]);
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
    t "sample --profile under interp exits 1" (fun () ->
        check "interp" 1 ("sample " ^ fig1 ^ " -n 1 --profile"));
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
    t "contexted runs write their log events to the parent's outputs" (fun () ->
        let lines extra =
          let log = Filename.temp_file "spatialdb_log" ".jsonl" in
          let code =
            run
              (Printf.sprintf "sample %s -n 3 --log-level info --log-out %s %s" fig1_union
                 (Filename.quote log) extra)
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
          Alcotest.(check int) (extra ^ " exits 0") 0 code;
          events
        in
        let plain = [ (0, "sample.run"); (1, "sample.done") ] in
        Alcotest.(check (list (pair int string))) "plain run" plain (lines "");
        Alcotest.(check (list (pair int string)))
          "two sequential jobs, one sequence"
          [ (0, "sample.run"); (1, "sample.done"); (2, "sample.run"); (3, "sample.done") ]
          (lines "--jobs 2 --jobs-mode seq");
        let par = lines "--jobs 2 --jobs-mode domains" in
        Alcotest.(check (list int)) "two domains, whole lines in seq order" [ 0; 1; 2; 3 ]
          (List.map fst par));
  ]

let profile_tests =
  [
    t "profile exits 0 and writes a document" (fun () ->
        let out = Filename.temp_file "spatialdb_profile" ".json" in
        check "run" 0
          ("sample " ^ fig1 ^ " -n 2 --engine vm-opt --profile --profile-out "
          ^ Filename.quote out);
        let doc = J.of_file out (J.schema "spatialdb-profile/1") in
        Sys.remove out;
        Alcotest.(check (result unit string)) "spatialdb-profile/1 document" (Ok ()) doc);
    t "sample --profile exits 0 under both compiled engines" (fun () ->
        check "vm" 0 ("sample " ^ fig1 ^ " -n 2 --engine vm --profile=counting");
        check "vm-opt" 0 ("sample " ^ fig1 ^ " -n 2 --engine vm-opt --profile"));
    t "report --engine vm-opt exits 0, interp rejects bogus engine" (fun () ->
        check "vm-opt" 0 ("report " ^ fig1 ^ " -n 2 --engine vm-opt -o /dev/null");
        check "bogus" 2 ("report " ^ fig1 ^ " -n 2 --engine bogus"));
  ]

let suites =
  [
    ("cli.success", success_tests);
    ("cli.usage", usage_tests);
    ("cli.cmdline", cmdline_tests);
    ("cli.runtime", runtime_tests);
    ("cli.profile", profile_tests);
  ]
