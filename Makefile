# Convenience entry points; everything is plain dune underneath.

.PHONY: all build test bench perf trend check ci clean

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
# (lib/sampling, lib/core, lib/vm) report through Scdb_obs.Probe, so a
# direct progress accrual or warn event there, which could drift from
# its counter, fails the gate.  Every walk draws its directions from
# the ziggurat fills (Rng.*_fast), so a polar draw in the samplers, the
# kernel or the VM, which would fork the walk stream, fails it too.
check:
	dune build
	@if grep -rnE 'Progress\.add_(steps|trials)|Log\.warn\b' lib/sampling lib/core lib/vm; then \
	  echo "make check: report through Scdb_obs.Probe, not Progress/Log directly" >&2; exit 1; fi
	@if grep -rnE 'Rng\.(unit_vector|unit_vector_into|in_ball|in_ball_into|gaussian)\b' \
	  lib/sampling lib/polytope lib/core lib/vm; then \
	  echo "make check: walks draw ziggurat directions (Rng.*_fast), not the polar fills" >&2; exit 1; fi
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
# the flight record replayed bit-for-bit.  A second recorded run drives the batched multi-chain
# kernel (`--diag --chains 4`) through its own record -> replay round
# trip.  Finally a compiled-engine smoke: an interpreter-recorded
# union run is replayed through the strict VM (`--engine vm`), which
# must reproduce the recorded sample stream bit-for-bit, and an
# optimized-VM run (`--engine vm-opt`, rewritten plan so a different
# stream by design) goes through its own record -> replay round trip
# and replays bit-for-bit on the interpreter and the plain VM too (the
# record's engine decides the plan, `--engine` only the executor), and
# its `explain --format program` listing must name both Figure 1
# leaves exact_weight (weights from the exact oracle, within the proven
# Lasserre call bound).
# Last, the profiler smoke: a `spatialdb report --engine vm-opt` whose
# embedded profile and tagged attribution rows must validate, a
# `sample --engine vm-opt --profile=timing --profile-out` run whose
# spatialdb-profile/1 document must validate, a profiled+recorded
# sample run whose flight record must
# still replay bit-for-bit (profiling never touches the RNG stream),
# and `regress --trend` over the committed BENCH trajectory.
# Then the observability-context smoke: the same union query run as 2
# concurrent jobs on separate domains (each in its own context) and
# again sequentially; the two sample streams must be byte-identical,
# the merged telemetry counters of the two runs must be identical
# (context merging loses nothing), and the concurrent run's merged dump
# must count exactly 40 union samples (both jobs' 20 draws arrived).
# Finally the accuracy-contract smoke: `spatialdb audit` of the
# Figure 1 union against the exact oracle (40 replicates over 2
# domains), its spatialdb-audit/1 document validated and gated against
# the committed AUDIT_1.json ledger (same fingerprint, contract still
# met), and a domains-vs-seq audit differential: the two documents must
# be byte-identical and their merged telemetry counters exactly equal.
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
# Last, the committed flight-record fixtures replay through the CLI on
# both the interpreter and the strict VM, so a stale fixture fails here
# as well as in the test suite.
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
	  --record _build/ci_batch.flightrec.json > _build/ci_batch_samples.tsv
	dune exec bin/spatialdb.exe -- replay _build/ci_batch.flightrec.json
	dune exec bin/spatialdb.exe -- sample --vars x,y \
	  --formula "(x >= 0 and y >= 0 and x + y <= 1) or (x >= 2 and x <= 3 and y >= 0 and y <= 1)" \
	  --seed 42 -n 5 \
	  --record _build/ci_union.flightrec.json > _build/ci_union_samples.tsv
	dune exec bin/spatialdb.exe -- replay --engine vm _build/ci_union.flightrec.json
	dune exec bin/spatialdb.exe -- sample --vars x,y \
	  --formula "(x >= 0 and y >= 0 and x + y <= 1) or (x >= 2 and x <= 3 and y >= 0 and y <= 1)" \
	  --seed 42 -n 5 --engine vm-opt \
	  --record _build/ci_vmopt.flightrec.json > _build/ci_vmopt_samples.tsv
	dune exec bin/spatialdb.exe -- replay _build/ci_vmopt.flightrec.json
	dune exec bin/spatialdb.exe -- replay --engine interp _build/ci_vmopt.flightrec.json
	dune exec bin/spatialdb.exe -- replay --engine vm _build/ci_vmopt.flightrec.json
	dune exec bin/spatialdb.exe -- explain --vars x,y \
	  --formula "(x >= 0 and y >= 0 and x + y <= 1) or (x >= 2 and x <= 3 and y >= 0 and y <= 1)" \
	  --engine vm-opt --format program > _build/explain_vmopt.txt
	test "$$(grep -c '^; leaf n[0-9]* weight: exact_weight' _build/explain_vmopt.txt)" = 2
	dune exec bin/spatialdb.exe -- report --vars x,y \
	  --formula "(x >= 0 and y >= 0 and x + y <= 1) or (x >= 2 and x <= 3 and y >= 0 and y <= 1)" \
	  --seed 42 --engine vm-opt -o _build/report_vmopt.json
	dune exec bench/validate_profile.exe -- --report _build/report_vmopt.json
	dune exec bin/spatialdb.exe -- sample --vars x,y \
	  --formula "(x >= 0 and y >= 0 and x + y <= 1) or (x >= 2 and x <= 3 and y >= 0 and y <= 1)" \
	  --seed 42 -n 20 --engine vm-opt --profile=timing \
	  --profile-out _build/profile_smoke.json > /dev/null 2> /dev/null
	dune exec bench/validate_profile.exe -- --profile _build/profile_smoke.json
	dune exec bin/spatialdb.exe -- sample --vars x,y \
	  --formula "(x >= 0 and y >= 0 and x + y <= 1) or (x >= 2 and x <= 3 and y >= 0 and y <= 1)" \
	  --seed 42 -n 5 --engine vm --profile=counting \
	  --record _build/ci_profiled.flightrec.json > /dev/null 2> /dev/null
	dune exec bin/spatialdb.exe -- replay _build/ci_profiled.flightrec.json
	dune exec bin/spatialdb.exe -- sample --vars x,y \
	  --formula "(x >= 0 and y >= 0 and x + y <= 1) or (x >= 2 and x <= 3 and y >= 0 and y <= 1)" \
	  --seed 42 -n 20 --jobs 2 --jobs-mode domains \
	  --stats-out _build/ci_jobs_par.json > _build/ci_jobs_par.tsv
	dune exec bin/spatialdb.exe -- sample --vars x,y \
	  --formula "(x >= 0 and y >= 0 and x + y <= 1) or (x >= 2 and x <= 3 and y >= 0 and y <= 1)" \
	  --seed 42 -n 20 --jobs 2 --jobs-mode seq \
	  --stats-out _build/ci_jobs_seq.json > _build/ci_jobs_seq.tsv
	cmp _build/ci_jobs_par.tsv _build/ci_jobs_seq.tsv
	dune exec bench/validate_logs.exe -- \
	  --compare-counters _build/ci_jobs_par.json _build/ci_jobs_seq.json
	grep -qE '"union\.samples": 40(,|$$)' _build/ci_jobs_par.json
	dune exec bench/regress.exe -- --trend
	dune exec bin/spatialdb.exe -- audit --vars x,y \
	  --formula "(x >= 0 and y >= 0 and x + y <= 1) or (x >= 2 and x <= 3 and y >= 0 and y <= 1)" \
	  --seed 42 --runs 40 --jobs 2 --oracle exact \
	  --out _build/audit_ci.json > /dev/null
	dune exec bench/validate_audit.exe -- --audit _build/audit_ci.json \
	  --check AUDIT_1.json
	dune exec bin/spatialdb.exe -- audit --vars x,y \
	  --formula "(x >= 0 and y >= 0 and x + y <= 1) or (x >= 2 and x <= 3 and y >= 0 and y <= 1)" \
	  --seed 42 --runs 6 --jobs 2 --jobs-mode domains --oracle exact \
	  --stats-out _build/ci_audit_par.json \
	  --out _build/ci_audit_par_doc.json > /dev/null
	dune exec bin/spatialdb.exe -- audit --vars x,y \
	  --formula "(x >= 0 and y >= 0 and x + y <= 1) or (x >= 2 and x <= 3 and y >= 0 and y <= 1)" \
	  --seed 42 --runs 6 --jobs 2 --jobs-mode seq --oracle exact \
	  --stats-out _build/ci_audit_seq.json \
	  --out _build/ci_audit_seq_doc.json > /dev/null
	cmp _build/ci_audit_par_doc.json _build/ci_audit_seq_doc.json
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
	dune exec bin/spatialdb.exe -- replay test/fixtures/union_k3.flightrec.json
	dune exec bin/spatialdb.exe -- replay --engine vm test/fixtures/union_k3.flightrec.json
	dune exec bin/spatialdb.exe -- replay test/fixtures/incremental_k1.flightrec.json
	dune exec bin/spatialdb.exe -- replay --engine vm test/fixtures/incremental_k1.flightrec.json
	dune exec bench/main.exe -- --fast e1 e2 e3 e4 e5 e6 e7 e8 e9 e10 e11 e12 e13 e14 > _build/experiments.txt

clean:
	dune clean
	rm -f *.flightrec.json
