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

# Tier-1 gate: full build, benches compile, tests pass.
check:
	dune build
	dune build @bench
	dune runtest

# check + perf smoke: fail if any kernel regresses >2x vs the committed
# baseline, then a `spatialdb report` smoke query whose JSON must
# validate (schema, trace events, plan + cost attribution, finite
# diagnostics), then a cost-model smoke: `spatialdb explain` of the
# Figure 1 triangle plus a short progressed sample run, with the plan
# JSON schema-validated and every executed node required to have a
# finite actual/predicted ratio, then an observability smoke: a
# recorded sample run with structured logging and a Prometheus
# snapshot, both validated, and the flight record replayed
# bit-for-bit.  A second recorded run drives the batched multi-chain
# kernel (`--diag --chains 4`) through its own record -> replay round
# trip.  Finally a compiled-engine smoke: an interpreter-recorded
# union run is replayed through the strict VM (`--engine vm`), which
# must reproduce the recorded sample stream bit-for-bit, and an
# optimized-VM run (`--engine vm-opt`, rewritten plan so a different
# stream by design) goes through its own record -> replay round trip.
# Last, the profiler smoke: a `spatialdb report --engine vm-opt` whose
# embedded profile and tagged attribution rows must validate, a
# `spatialdb profile` run whose spatialdb-profile/1 document must
# validate, a profiled+recorded sample run whose flight record must
# still replay bit-for-bit (profiling never touches the RNG stream),
# and `regress --trend` over the committed BENCH trajectory.
# Then the observability-context smoke: the same union query run as 2
# concurrent jobs on separate domains (each in its own context) and
# again sequentially; the merged telemetry counters of the two runs
# must be identical (context merging loses nothing), the published
# spatialdb-status/1 document must validate with >= 2 contexts showing
# draws, `spatialdb status` must render it, and a contexted
# (`--status-out`) recorded run must still replay bit-for-bit.
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
	dune exec bin/spatialdb.exe -- sample --vars x,y \
	  --formula "x >= 0 and y >= 0 and x + y <= 1" --seed 42 -n 5 \
	  --log-level debug --log-out _build/ci_log.jsonl \
	  --metrics-out _build/ci_metrics.prom \
	  --record _build/ci.flightrec.json > _build/ci_samples.tsv
	dune exec bench/validate_logs.exe -- --log _build/ci_log.jsonl \
	  --metrics _build/ci_metrics.prom
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
	dune exec bin/spatialdb.exe -- report --vars x,y \
	  --formula "(x >= 0 and y >= 0 and x + y <= 1) or (x >= 2 and x <= 3 and y >= 0 and y <= 1)" \
	  --seed 42 --engine vm-opt -o _build/report_vmopt.json
	dune exec bench/validate_profile.exe -- --report _build/report_vmopt.json
	dune exec bin/spatialdb.exe -- profile --vars x,y \
	  --formula "(x >= 0 and y >= 0 and x + y <= 1) or (x >= 2 and x <= 3 and y >= 0 and y <= 1)" \
	  --seed 42 -n 20 --out _build/profile_smoke.json > /dev/null
	dune exec bench/validate_profile.exe -- --profile _build/profile_smoke.json
	dune exec bin/spatialdb.exe -- sample --vars x,y \
	  --formula "(x >= 0 and y >= 0 and x + y <= 1) or (x >= 2 and x <= 3 and y >= 0 and y <= 1)" \
	  --seed 42 -n 5 --engine vm --profile=counting \
	  --record _build/ci_profiled.flightrec.json > /dev/null 2> /dev/null
	dune exec bin/spatialdb.exe -- replay _build/ci_profiled.flightrec.json
	dune exec bin/spatialdb.exe -- sample --vars x,y \
	  --formula "(x >= 0 and y >= 0 and x + y <= 1) or (x >= 2 and x <= 3 and y >= 0 and y <= 1)" \
	  --seed 42 -n 20 --jobs 2 --jobs-mode domains --live \
	  --stats-out _build/ci_jobs_par.json \
	  --status-out _build/ci_status.json > _build/ci_jobs_par.tsv 2> /dev/null
	dune exec bin/spatialdb.exe -- sample --vars x,y \
	  --formula "(x >= 0 and y >= 0 and x + y <= 1) or (x >= 2 and x <= 3 and y >= 0 and y <= 1)" \
	  --seed 42 -n 20 --jobs 2 --jobs-mode seq \
	  --stats-out _build/ci_jobs_seq.json > _build/ci_jobs_seq.tsv
	cmp _build/ci_jobs_par.tsv _build/ci_jobs_seq.tsv
	dune exec bench/validate_status.exe -- \
	  --status _build/ci_status.json --min-contexts 2 \
	  --compare-counters _build/ci_jobs_par.json _build/ci_jobs_seq.json
	dune exec bin/spatialdb.exe -- status _build/ci_status.json --require 2
	dune exec bin/spatialdb.exe -- sample --vars x,y \
	  --formula "(x >= 0 and y >= 0 and x + y <= 1) or (x >= 2 and x <= 3 and y >= 0 and y <= 1)" \
	  --seed 42 -n 5 --status-out _build/ci_ctx_status.json \
	  --record _build/ci_ctx.flightrec.json > /dev/null
	dune exec bin/spatialdb.exe -- replay _build/ci_ctx.flightrec.json
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
	dune exec bench/validate_status.exe -- \
	  --compare-counters _build/ci_audit_par.json _build/ci_audit_seq.json
	dune exec bin/spatialdb.exe -- audit -v x,y \
	  -f "(x >= 0 and y >= 0 and x + y <= 1) or (x >= 2 and x <= 3 and y >= 0 and y <= 1)" \
	  --seed 42 --runs 60 --jobs 4 --oracle exact -o _build/AUDIT_ledger.json > /dev/null
	cmp _build/AUDIT_ledger.json AUDIT_1.json

clean:
	dune clean
	rm -f *.flightrec.json
