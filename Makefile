# Convenience entry points; everything is plain dune underneath.

.PHONY: all build test bench perf trend check ci clean

# Library modules that only tests name, each kept for the reason given
# (make check fails on any other):
#   Exact_mat: the exact determinant test_linalg checks Mat.det against.
LIB_TEST_ONLY = Exact_mat

# The standard 6-simplex, the exact sampler's CI fixture.
SIMPLEX6 = -v x1,x2,x3,x4,x5,x6 \
  -f "x1 >= 0 and x2 >= 0 and x3 >= 0 and x4 >= 0 and x5 >= 0 and x6 >= 0 and x1 + x2 + x3 + x4 + x5 + x6 <= 1"

# The 2-D shadow of the scaled 4-D cross-polytope
# |x|/3 + |y|/5 + |z1|/7 + |z2| <= 1, the rhombus |x|/3 + |y|/5 <= 1 of
# exact area 30.  Fourier-Motzkin eliminates z1 and z2 and leaves the
# non-dyadic rows +-8/147 x +- 8/245 y - 8/49 <= 0, on which the exact
# volume's integer recursion then runs.
CROSS2 = -v x,y -f "exists z1 z2. \
  x/3 + y/5 + z1/7 + z2 <= 1 and x/3 + y/5 + z1/7 - z2 <= 1 and x/3 + y/5 - z1/7 + z2 <= 1 and x/3 + y/5 - z1/7 - z2 <= 1 and \
  x/3 - y/5 + z1/7 + z2 <= 1 and x/3 - y/5 + z1/7 - z2 <= 1 and x/3 - y/5 - z1/7 + z2 <= 1 and x/3 - y/5 - z1/7 - z2 <= 1 and \
  -x/3 + y/5 + z1/7 + z2 <= 1 and -x/3 + y/5 + z1/7 - z2 <= 1 and -x/3 + y/5 - z1/7 + z2 <= 1 and -x/3 + y/5 - z1/7 - z2 <= 1 and \
  -x/3 - y/5 + z1/7 + z2 <= 1 and -x/3 - y/5 + z1/7 - z2 <= 1 and -x/3 - y/5 - z1/7 + z2 <= 1 and -x/3 - y/5 - z1/7 - z2 <= 1"

all: build

build:
	dune build

test:
	dune runtest

# Perf-regression harness: writes BENCH_<n>.json in the repo root.
bench:
	dune exec bench/regress.exe

# Bechamel micro-benchmarks (finer-grained, no JSON output).
perf:
	dune exec bench/main.exe -- perf

# Perf-trend ledger: walk every committed BENCH_<n>.json (globbed in
# index order) and flag silent normalized drifts.
trend:
	dune exec bench/regress.exe -- --trend

# Tier-1 gate: full build, benches compile, tests pass.  The samplers
# and the optimizing pass (lib/sampling, lib/core, lib/vm) report
# through Scdb_obs.Probe, so a direct progress accrual or warn event
# there, which could drift from its counter, fails the gate.  Every
# walk draws its directions from the ziggurat fills (Rng.*_fast), so a
# polar draw in the samplers, the kernel or lib/vm, which would fork
# the walk stream, fails it too.
# Each observability store is one process-wide instance and the audit's
# replicate jobs are the only parallel work, so domain-local state
# anywhere in lib/, or a domain spawned outside lib/audit, fails it.
# Every relation reaches its per-tuple pieces through Plan_exec, so a
# Convex_obs.prepare_tuples call anywhere else in lib/ or bin/, which
# would be a second copy of the composition, fails it too.
# GIS projections take their source from the plan pipeline through
# Project.of_source, so a Project.project call in lib/gis/ or bin/,
# which would build a second, private DFK source, fails it too.
# Every FO+LIN text goes through the one parser in lib/constr, so a
# Lexer. use in lib/ or bin/ outside lib/constr/, which would be a
# second parser over its tokens, fails it too.
# Every lib/ module serves the CLI, an experiment, a validator, the
# e2e benchmark, an example or another lib/ module, so a lib/*/m.ml
# whose module name no .ml/.mli in bin/, bench/, examples/ or another
# lib/ module names, which only tests would reach, fails it too,
# unless LIB_TEST_ONLY lists it.
check:
	dune build
	@if grep -rnE 'Progress\.add_(steps|trials)|Log\.warn\b' lib/sampling lib/core lib/vm; then \
	  echo "make check: report through Scdb_obs.Probe, not Progress/Log directly" >&2; exit 1; fi
	@if grep -rnE 'Rng\.(unit_vector|unit_vector_into|in_ball|in_ball_into|gaussian)\b' \
	  lib/sampling lib/polytope lib/core lib/vm; then \
	  echo "make check: walks draw ziggurat directions (Rng.*_fast), not the polar fills" >&2; exit 1; fi
	@if grep -rn 'Domain\.DLS' lib; then \
	  echo "make check: one store per process, no domain-local state in lib/" >&2; exit 1; fi
	@if grep -rn 'Domain\.spawn' lib bin | grep -v '^lib/audit/'; then \
	  echo "make check: only lib/audit spawns domains" >&2; exit 1; fi
	@if grep -rn 'Convex_obs\.prepare_tuples' lib bin | grep -v '^lib/gis/plan_exec\.ml:'; then \
	  echo "make check: per-tuple pieces come from Plan_exec, not Convex_obs.prepare_tuples" >&2; exit 1; fi
	@if grep -rn 'Project\.project\b' lib/gis bin; then \
	  echo "make check: GIS projections take their source from the plan pipeline (Project.of_source), not Project.project" >&2; exit 1; fi
	@if grep -rn 'Lexer\.' lib bin | grep -v '^lib/constr/'; then \
	  echo "make check: FO+LIN text parses through Scdb_constr.Parser, not over Lexer tokens" >&2; exit 1; fi
	@bad=; for f in lib/*/*.ml; do \
	  m=$$(basename $$f .ml | awk '{ print toupper(substr($$0, 1, 1)) substr($$0, 2) }'); \
	  case " $(LIB_TEST_ONLY) " in *" $$m "*) continue;; esac; \
	  grep -rlw --include='*.ml' --include='*.mli' "$$m" bin bench examples lib \
	    | grep -qvx -e "$$f" -e "$${f}i" || { echo "$$f: $$m"; bad=1; }; \
	done; if [ -n "$$bad" ]; then \
	  echo "make check: a lib/ module only tests reach; give it a caller, delete it or list it in LIB_TEST_ONLY" >&2; exit 1; fi
	dune build @bench
	dune runtest

# check + perf smoke: fail if any kernel regresses >2x vs the committed
# baseline, then a `spatialdb report` smoke query whose JSON must
# validate (schema, trace events, plan + cost attribution, finite
# diagnostics), then a cost-model smoke: `spatialdb explain` of the
# Figure 1 triangle plus a short progressed sample run, with the plan
# JSON schema-validated and every executed node required to have a
# finite actual/predicted ratio, and the plan the report ran must have
# the node ids, ops and dims explain predicted (explain ≡ run, also on
# a union whose segment tuple the run drops as lower-dimensional),
# then an observability smoke: a
# recorded sample run with structured logging, the log validated and
# the flight record replayed bit-for-bit.  A second run adds `--diag
# --chains 4`: the batched multi-chain convergence check on the first
# piece must print the verdict "diag: converged" to stderr.  (Its
# record is written before the check runs, so its replay covers the
# same stream as the plain run's.)  Finally a vm-opt smoke: a run on the rewritten plan
# (`--engine vm-opt`, a different stream by design) of the Figure 1
# union goes through its own record -> replay round trip, and its
# `explain --format json` plan must name both leaves' weight route
# exact_weight (weights from the exact oracle, within the proven
# Lasserre call bound).  The same round trip on the 6-simplex, whose
# vm-opt leaf draws from its exact face lattice: its record replays
# bit-for-bit and its plan names the leaf's draw route exact_sampler.
# Then `spatialdb report --engine vm-opt` must validate, with both leaf
# rows of its cost attribution tagged exact_weight and
# rejection_box_substituted, and `regress --trend` runs over the
# committed BENCH trajectory.
# Finally the accuracy-contract smoke: `spatialdb audit` of the
# Figure 1 union against the exact oracle (40 replicates over 2
# domains), its spatialdb-audit/1 document validated and gated against
# the committed AUDIT_1.json ledger (same fingerprint, contract still
# met), and a --jobs 2 vs --jobs 1 audit differential: the two
# documents must be byte-identical but for their "jobs" argument, and
# their telemetry counters (two domains writing the shared counters at
# once, one domain alone) exactly equal.
# Last, the ledger byte-identity gate: AUDIT_1.json is regenerated with
# the command EXPERIMENTS.md documents and must match the committed
# file byte for byte, so any change to the estimators' rng stream or
# arithmetic fails CI instead of passing on fingerprint and verdict.
# Then an exact-oracle audit of three overlapping boxes (truth 4,
# Karp-Luby acceptance about 2/3) must PASS, so the union's stopping
# rule is checked away from acceptance 1.
# Last, the exact-oracle float conversion: the box
# [0, (10^400+1)/10^400] x [0,1] has an exact volume whose parts both
# overflow a float; `volume --mode exact` must still print its value,
# and `sample` must run on it (its float rows are scaled into range).
# Last, the committed flight-record fixtures replay through the CLI, so
# a stale fixture fails here as well as in the test suite.
# Finally every experiment E1-E14 runs once in fast mode, so an
# experiment that raises fails here instead of going unnoticed.
# Throwaway artifacts go to _build/.
ci: check
	dune exec bench/regress.exe -- --fast -o _build/BENCH_ci.json --check BENCH_8.json
	dune exec bin/spatialdb.exe -- report --vars x,y \
	  --formula "x >= 0 and y >= 0 and x + y <= 1" --seed 42 \
	  -o _build/report_smoke.json
	dune exec bench/validate_report.exe -- _build/report_smoke.json --require-converged
	dune exec bin/spatialdb.exe -- explain --vars x,y \
	  --formula "x >= 0 and y >= 0 and x + y <= 1" \
	  --format json > _build/plan_smoke.json
	dune exec bin/spatialdb.exe -- sample --vars x,y \
	  --formula "x >= 0 and y >= 0 and x + y <= 1" --seed 42 -n 3 \
	  --progress > /dev/null
	dune exec bench/validate_plan.exe -- --plan _build/plan_smoke.json \
	  --report _build/report_smoke.json
	dune exec bin/spatialdb.exe -- explain --vars x,y \
	  --formula "(0 <= x and x <= 1 and y = 0) or (0 <= x and x <= 1 and 0 <= y and y <= 1)" \
	  --task report --format json > _build/plan_lowdim.json
	dune exec bin/spatialdb.exe -- report --vars x,y \
	  --formula "(0 <= x and x <= 1 and y = 0) or (0 <= x and x <= 1 and 0 <= y and y <= 1)" \
	  --seed 42 -o _build/report_lowdim.json
	dune exec bench/validate_plan.exe -- --plan _build/plan_lowdim.json \
	  --report _build/report_lowdim.json
	dune exec bin/spatialdb.exe -- sample --vars x,y \
	  --formula "x >= 0 and y >= 0 and x + y <= 1" --seed 42 -n 5 \
	  --log-level debug --log-out _build/ci_log.jsonl \
	  --record _build/ci.flightrec.json > _build/ci_samples.tsv
	dune exec bench/validate_logs.exe -- --log _build/ci_log.jsonl
	dune exec bin/spatialdb.exe -- replay _build/ci.flightrec.json
	dune exec bin/spatialdb.exe -- sample --vars x,y \
	  --formula "x >= 0 and y >= 0 and x + y <= 1" --seed 42 -n 5 \
	  --diag --chains 4 \
	  --record _build/ci_batch.flightrec.json > _build/ci_batch_samples.tsv \
	  2> _build/ci_batch_diag.txt
	grep -q '^diag: converged' _build/ci_batch_diag.txt
	dune exec bin/spatialdb.exe -- replay _build/ci_batch.flightrec.json
	dune exec bin/spatialdb.exe -- sample --vars x,y \
	  --formula "(x >= 0 and y >= 0 and x + y <= 1) or (x >= 2 and x <= 3 and y >= 0 and y <= 1)" \
	  --seed 42 -n 5 \
	  --record _build/ci_union.flightrec.json > _build/ci_union_samples.tsv
	dune exec bin/spatialdb.exe -- replay _build/ci_union.flightrec.json
	dune exec bin/spatialdb.exe -- sample --vars x,y \
	  --formula "(x >= 0 and y >= 0 and x + y <= 1) or (x >= 2 and x <= 3 and y >= 0 and y <= 1)" \
	  --seed 42 -n 5 --engine vm-opt \
	  --record _build/ci_vmopt.flightrec.json > _build/ci_vmopt_samples.tsv
	dune exec bin/spatialdb.exe -- replay _build/ci_vmopt.flightrec.json
	dune exec bin/spatialdb.exe -- explain --vars x,y \
	  --formula "(x >= 0 and y >= 0 and x + y <= 1) or (x >= 2 and x <= 3 and y >= 0 and y <= 1)" \
	  --engine vm-opt --format json > _build/explain_vmopt.json
	test "$$(tr -d ' \n' < _build/explain_vmopt.json \
	  | grep -o '"weight":{"route":"exact_weight"' | wc -l)" = 2
	dune exec bin/spatialdb.exe -- sample $(SIMPLEX6) --seed 42 -n 20 --engine vm-opt \
	  --record _build/ci_simplex6.flightrec.json > _build/ci_simplex6_samples.tsv
	dune exec bin/spatialdb.exe -- replay _build/ci_simplex6.flightrec.json
	dune exec bin/spatialdb.exe -- explain $(SIMPLEX6) -n 200 --engine vm-opt \
	  --format json > _build/explain_simplex6.json
	tr -d ' \n' < _build/explain_simplex6.json | grep -q '"draws":{"route":"exact_sampler"'
	dune exec bin/spatialdb.exe -- report --vars x,y \
	  --formula "(x >= 0 and y >= 0 and x + y <= 1) or (x >= 2 and x <= 3 and y >= 0 and y <= 1)" \
	  --seed 42 --engine vm-opt -o _build/report_vmopt.json
	dune exec bench/validate_report.exe -- _build/report_vmopt.json
	test "$$(tr -d ' \n' < _build/report_vmopt.json \
	  | grep -o '"op":"dfk","predicted":[^}]*"tags":\["exact_weight","rejection_box_substituted"\]' \
	  | wc -l)" = 2
	dune exec bench/regress.exe -- --trend
	dune exec bin/spatialdb.exe -- audit --vars x,y \
	  --formula "(x >= 0 and y >= 0 and x + y <= 1) or (x >= 2 and x <= 3 and y >= 0 and y <= 1)" \
	  --seed 42 --runs 40 --jobs 2 --oracle exact \
	  --out _build/audit_ci.json > /dev/null
	dune exec bench/validate_audit.exe -- --audit _build/audit_ci.json \
	  --check AUDIT_1.json
	dune exec bin/spatialdb.exe -- audit --vars x,y \
	  --formula "(x >= 0 and y >= 0 and x + y <= 1) or (x >= 2 and x <= 3 and y >= 0 and y <= 1)" \
	  --seed 42 --runs 6 --jobs 2 --oracle exact \
	  --stats-out _build/ci_audit_par.json \
	  --out _build/ci_audit_par_doc.json > /dev/null
	dune exec bin/spatialdb.exe -- audit --vars x,y \
	  --formula "(x >= 0 and y >= 0 and x + y <= 1) or (x >= 2 and x <= 3 and y >= 0 and y <= 1)" \
	  --seed 42 --runs 6 --jobs 1 --oracle exact \
	  --stats-out _build/ci_audit_seq.json \
	  --out _build/ci_audit_seq_doc.json > /dev/null
	grep -v '"jobs":' _build/ci_audit_par_doc.json > _build/ci_audit_par_doc.txt
	grep -v '"jobs":' _build/ci_audit_seq_doc.json > _build/ci_audit_seq_doc.txt
	cmp _build/ci_audit_par_doc.txt _build/ci_audit_seq_doc.txt
	dune exec bench/validate_logs.exe -- \
	  --compare-counters _build/ci_audit_par.json _build/ci_audit_seq.json
	dune exec bin/spatialdb.exe -- audit -v x,y \
	  -f "(x >= 0 and y >= 0 and x + y <= 1) or (x >= 2 and x <= 3 and y >= 0 and y <= 1)" \
	  --seed 42 --runs 60 --jobs 4 --oracle exact -o _build/AUDIT_ledger.json > /dev/null
	cmp _build/AUDIT_ledger.json AUDIT_1.json
	dune exec bin/spatialdb.exe -- audit -v x,y \
	  -f "(0 <= x and x <= 2 and 0 <= y and y <= 1) or (1 <= x and x <= 3 and 0 <= y and y <= 1) or (0.5 <= x and x <= 2.5 and 0.5 <= y and y <= 1.5)" \
	  --seed 7 --runs 40 --jobs 2 --oracle exact > _build/audit_overlap.txt
	grep -q "verdict PASS" _build/audit_overlap.txt
	test "$$(dune exec bin/spatialdb.exe -- volume -v x,y \
	  -f "0 <= x and 1$$(printf '%0400d' 0)*x <= 1$$(printf '%0399d' 0)1 and 0 <= y and y <= 1" \
	  --mode exact)" = 1.000000000
	dune exec bin/spatialdb.exe -- sample -v x,y \
	  -f "0 <= x and 1$$(printf '%0400d' 0)*x <= 1$$(printf '%0399d' 0)1 and 0 <= y and y <= 1" \
	  --seed 42 -n 5 > /dev/null
	dune exec bin/spatialdb.exe -- qe $(CROSS2) | grep -q "8/245\*y"
	test "$$(dune exec bin/spatialdb.exe -- volume $(CROSS2) --mode exact)" = 30.000000000
	dune exec bin/spatialdb.exe -- replay test/fixtures/union_k3.flightrec.json
	dune exec bin/spatialdb.exe -- replay test/fixtures/incremental_k1.flightrec.json
	dune exec bench/main.exe -- --fast e1 e2 e3 e4 e5 e6 e7 e8 e9 e10 e11 e12 e13 e14 > _build/experiments.txt

clean:
	dune clean
	rm -f *.flightrec.json
