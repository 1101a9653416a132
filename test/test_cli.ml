(* End-to-end exit-code tests for the spatialdb binary.

   The convention under test (see bin/spatialdb.ml): 2 for usage/value
   errors with the valid choices listed, 1 for runtime errors (parse
   failures, empty relations), cmdliner's 124 for malformed command
   lines, 0 on success.  The binary is a declared dune dependency of
   the test runner, sitting at ../bin/spatialdb.exe relative to it. *)

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
        check "sample" 2 ("sample " ^ fig1 ^ " -n 1 --engine vm --profile=bogus");
        check "profile cmd" 2 ("profile " ^ fig1 ^ " -n 1 --mode bogus"));
    t "profile rejects the interpreter engine" (fun () ->
        check "profile cmd" 2 ("profile " ^ fig1 ^ " -n 1 --engine interp"));
    t "audit rejects starved fault-injection budgets" (fun () ->
        let audit = "audit " ^ fig1_union ^ " --oracle exact --runs 2 " in
        check "phase-samples 0" 2 (audit ^ "--phase-samples 0");
        check "phase-samples -5" 2 (audit ^ "--phase-samples=-5");
        check "walk-steps -3" 2 (audit ^ "--walk-steps=-3"));
  ]

let cmdline_tests =
  [
    t "unknown flag exits 124" (fun () -> check "flag" 124 ("explain " ^ fig1 ^ " --bogus-flag"));
    t "unknown subcommand exits 124" (fun () -> check "subcommand" 124 "frobnicate");
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
    t "status rejects a truncated document with the missing field" (fun () ->
        let file = Filename.temp_file "spatialdb_status" ".json" in
        Out_channel.with_open_text file (fun oc ->
            output_string oc
              {|{"schema": "spatialdb-status/1", "ts": 1.0, "contexts": [{"name": "job0"}]}|});
        let code, err = run_stderr ("status " ^ Filename.quote file) in
        Sys.remove file;
        Alcotest.(check (pair int string)) "exit 1, typed error"
          (1, Printf.sprintf "spatialdb: %s: $.contexts[0]: missing field \"done\"\n" file)
          (code, err));
  ]

let profile_tests =
  [
    t "profile exits 0 and writes a document" (fun () ->
        let out = Filename.temp_file "spatialdb_profile" ".json" in
        check "run" 0 ("profile " ^ fig1 ^ " -n 2 --out " ^ Filename.quote out);
        let ic = open_in out in
        let len = in_channel_length ic in
        close_in ic;
        Alcotest.(check bool) "document non-empty" true (len > 0);
        Sys.remove out);
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
