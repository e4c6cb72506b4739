# Developer entry points. `make check` is the gate a change must pass, in
# order: `go vet`, the repo-native analyzers (`lint` runs the fast
# per-package checks — lock discipline, resource leaks, SQL literals,
# determinism, metric names, atomic access, cancellation polling;
# `lint-global` runs the whole-module interprocedural ones — lock
# ordering and span/goroutine lifecycle; see docs/STATIC_ANALYSIS.md),
# a freshness check on the committed SQL fuzz seed corpus (`seed-check`),
# full build, the race-enabled test suite, a 10-second fuzz pass over the
# SQL parser, the reldb value codec and snapshot loader, the columnar segment encoders and
# the index-join/hash-join differential (`fuzz-smoke`), and one-shot smoke runs of the observability
# benchmark, the serve binary, the persisted span-tree pipeline
# (`trace-smoke`), the introspection catalog (`catalog-smoke`), the
# group-committed telemetry pipeline (`telemetry-smoke`), the columnar
# executor's speedup/identity experiment (`columnar-smoke`), and the
# continuous-observability loop — alert lifecycle plus workload advisor
# over the real binary (`alerts-smoke`).
# Cheap syntactic
# gates run first so a violation fails in seconds, not after the race
# suite.

GO ?= go

.PHONY: check vet lint lint-global seed-check seed-corpus build test race fuzz-smoke bench-smoke serve-smoke trace-smoke catalog-smoke telemetry-smoke columnar-smoke alerts-smoke bench bench-parallel bench-columnar bench-trace experiments clean

check: vet lint lint-global seed-check build race fuzz-smoke bench-smoke serve-smoke trace-smoke catalog-smoke telemetry-smoke columnar-smoke alerts-smoke

vet:
	$(GO) vet ./...

# Repo-native static analysis: builds and runs cmd/perfdmf-vet over the
# whole module. Exits nonzero with file:line diagnostics on any finding;
# deliberate exceptions are annotated //lint:allow in source, never
# skipped here. `lint` runs the fast per-package analyzers; `lint-global`
# runs the interprocedural whole-module ones (lockorder, lifecycle),
# which walk call graphs and are the slowest gates before the race suite.
lint:
	$(GO) build -o bin/perfdmf-vet ./cmd/perfdmf-vet
	bin/perfdmf-vet -analyzers lockcheck,closecheck,sqlcheck,determinism,metricnames,atomiccheck,ctxpoll ./...

lint-global:
	$(GO) build -o bin/perfdmf-vet ./cmd/perfdmf-vet
	bin/perfdmf-vet -analyzers lockorder,lifecycle ./...

# The SQL fuzz seed corpus must list exactly the statements perfdmf-vet
# -dump-sql extracts from the repo today (the dump is deterministic), so
# FuzzParse always starts from every statement the code issues. Refresh it
# with `make seed-corpus`.
seed-check:
	$(GO) build -o bin/perfdmf-vet ./cmd/perfdmf-vet
	@bin/perfdmf-vet -dump-sql ./... > bin/sql_seed.txt
	@cmp -s bin/sql_seed.txt internal/sqlparse/testdata/sql_seed.txt || { \
		echo "seed-check: internal/sqlparse/testdata/sql_seed.txt is stale; run make seed-corpus"; \
		diff internal/sqlparse/testdata/sql_seed.txt bin/sql_seed.txt | head -20; exit 1; }
	@echo "seed-check: ok"

seed-corpus:
	$(GO) build -o bin/perfdmf-vet ./cmd/perfdmf-vet
	bin/perfdmf-vet -dump-sql ./... > internal/sqlparse/testdata/sql_seed.txt

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The second pass repeats the telemetry pipeline tests (writer, barrier,
# retention, catalog row, history loop) and the cursor isolation test 20
# times: a flaky barrier, or a cursor racing a writer, shows up as a failed
# run here, not as a rare failure in one full-suite pass.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=20 -run 'TestTelemetry|TestCatalogTelemetry|TestContinuousObservability|TestCursorIsolation' ./internal/godbc

# 10 seconds of fuzzing per target (Go allows one -fuzz per invocation):
# FuzzParse runs the parser over the committed SQL seed corpus
# (internal/sqlparse/testdata/sql_seed.txt, regenerated with
# `make seed-corpus` and checked by `seed-check`) plus mutations; FuzzValueRoundTrip pounds
# the reldb snapshot/WAL value codec and FuzzValueDecode feeds it arbitrary
# bytes; FuzzSnapshotLoad truncates and bit-flips a version 3 snapshot,
# which must load to the original state or fail; FuzzSegmentRoundTrip drives the
# columnar segment encoders (raw/FOR/RLE ints, dict/raw strings) from
# the committed corpus in internal/reldb/testdata/fuzz;
# FuzzJoinIndexDifferential checks that index nested-loop joins return
# bitwise the rows hash joins return over fuzzed tables; FuzzOpenDSN
# opens arbitrary mem: DSNs, which must open or fail cleanly and round-trip
# through their canonical spelling.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s ./internal/sqlparse
	$(GO) test -run '^$$' -fuzz '^FuzzValueRoundTrip$$' -fuzztime 10s ./internal/reldb
	$(GO) test -run '^$$' -fuzz '^FuzzValueDecode$$' -fuzztime 10s ./internal/reldb
	$(GO) test -run '^$$' -fuzz '^FuzzSnapshotLoad$$' -fuzztime 10s ./internal/reldb
	$(GO) test -run '^$$' -fuzz '^FuzzSegmentRoundTrip$$' -fuzztime 10s ./internal/reldb
	$(GO) test -run '^$$' -fuzz '^FuzzJoinIndexDifferential$$' -fuzztime 10s ./internal/sqlexec
	$(GO) test -run '^$$' -fuzz '^FuzzOpenDSN$$' -fuzztime 10s ./internal/godbc

# One iteration per sub-benchmark: proves the observability guard, the
# E1 full-trial load and upload benchmarks and the archive reopen benchmark
# still compile and run. Real numbers come from `make bench`.
bench-smoke:
	$(GO) test -run '^$$' -bench ObsOverhead -benchtime 1x .
	$(GO) test -run '^$$' -bench 'E1LargeTrial(Load|Upload)/threads-512$$' -benchtime 1x -benchmem .
	$(GO) test -run '^$$' -bench '^BenchmarkReopen$$' -benchtime 1x -benchmem .

# Boot `perfdmf serve` on an ephemeral port, scrape /healthz and /metrics,
# and assert both respond, that /healthz carries the telemetry block, and
# that the catalog-backed /statements and /alerts parse as JSON.
# Exercises the real binary end to end.
serve-smoke:
	$(GO) build -o bin/perfdmf ./cmd/perfdmf
	@rm -f bin/serve-smoke.log
	@bin/perfdmf serve -db mem:smoke -addr 127.0.0.1:0 > bin/serve-smoke.log 2>&1 & \
	pid=$$!; \
	addr=""; \
	for i in $$(seq 1 50); do \
		addr=$$(sed -n 's|^perfdmf: serving on http://\([^ ]*\).*|\1|p' bin/serve-smoke.log); \
		[ -n "$$addr" ] && break; \
		sleep 0.1; \
	done; \
	if [ -z "$$addr" ]; then echo "serve-smoke: server never came up"; cat bin/serve-smoke.log; kill $$pid 2>/dev/null; exit 1; fi; \
	ok=0; \
	curl -fsS "http://$$addr/healthz" > bin/serve-smoke.healthz && \
	grep -q '"telemetry_queue_depth"' bin/serve-smoke.healthz && \
	curl -fsS "http://$$addr/statements" | python3 -m json.tool > /dev/null && \
	curl -fsS "http://$$addr/alerts" | python3 -m json.tool > bin/serve-smoke.alerts && \
	grep -q '"alerts"' bin/serve-smoke.alerts && \
	curl -fsS "http://$$addr/metrics" > bin/serve-smoke.metrics && \
	grep -q '^go_goroutines ' bin/serve-smoke.metrics && \
	grep -q '^godbc_conns_opened_total ' bin/serve-smoke.metrics && ok=1; \
	kill $$pid 2>/dev/null; wait $$pid 2>/dev/null; \
	if [ "$$ok" != 1 ]; then echo "serve-smoke: endpoint checks failed"; cat bin/serve-smoke.log; exit 1; fi; \
	echo "serve-smoke: ok (http://$$addr)"

# End-to-end span-tree smoke over the real binary: synthesize a TAU input,
# load it with -telemetry so the upload's span tree persists into
# PERFDMF_SPANS, and assert `perfdmf trace` reconstructs a causal tree at
# least three levels deep (workload root → framework phases → statements).
trace-smoke:
	$(GO) build -o bin/perfdmf ./cmd/perfdmf
	@rm -rf bin/trace-smoke && mkdir -p bin/trace-smoke/db
	bin/perfdmf synth -o bin/trace-smoke/fixtures > /dev/null
	bin/perfdmf load -db file:bin/trace-smoke/db -telemetry -app smoke -exp e1 bin/trace-smoke/fixtures/tau-run > /dev/null
	bin/perfdmf trace -db file:bin/trace-smoke/db > bin/trace-smoke/trace.out
	@grep -q '└─' bin/trace-smoke/trace.out || { echo "trace-smoke: no nested spans"; cat bin/trace-smoke/trace.out; exit 1; }
	@depth=$$(sed -n 's/.*max depth \([0-9][0-9]*\)$$/\1/p' bin/trace-smoke/trace.out); \
	if [ -z "$$depth" ] || [ "$$depth" -lt 3 ]; then \
		echo "trace-smoke: span tree too shallow (depth=$$depth)"; cat bin/trace-smoke/trace.out; exit 1; \
	fi; \
	echo "trace-smoke: ok (max depth $$depth)"

# Introspection-catalog smoke over the real binary: load a synthesized TAU
# trial into a file-backed archive, run a bare ANALYZE (all tables), and
# read the statistics back through the OBS_TABLE_STATS virtual table —
# fresh stats must exist for the trial table and must not be stale.
catalog-smoke:
	$(GO) build -o bin/perfdmf ./cmd/perfdmf
	@rm -rf bin/catalog-smoke && mkdir -p bin/catalog-smoke/db
	bin/perfdmf synth -o bin/catalog-smoke/fixtures > /dev/null
	bin/perfdmf load -db file:bin/catalog-smoke/db -app smoke -exp e1 bin/catalog-smoke/fixtures/tau-run > /dev/null
	bin/perfdmf sql -db file:bin/catalog-smoke/db "ANALYZE" > bin/catalog-smoke/analyze.out
	bin/perfdmf sql -db file:bin/catalog-smoke/db "SELECT table_name, column_name, row_count, ndv, stale FROM OBS_TABLE_STATS" > bin/catalog-smoke/stats.out
	@grep -q '^trial' bin/catalog-smoke/stats.out || { echo "catalog-smoke: no stats for trial"; cat bin/catalog-smoke/stats.out; exit 1; }
	@if grep -q 'true$$' bin/catalog-smoke/stats.out; then echo "catalog-smoke: stale stats right after ANALYZE"; cat bin/catalog-smoke/stats.out; exit 1; fi
	@rows=$$(grep -c '^' bin/catalog-smoke/stats.out); \
	echo "catalog-smoke: ok ($$rows stats rows)"

# Telemetry-pipeline smoke over the real binary: load a synthesized TAU
# run with span persistence, sampling forced off (-telemetry-budget=-1 so
# the span count is deterministic) and a tight row cap, then assert the
# load's drain summary shows spans stored AND pruned with none dropped
# (the load offers far fewer spans than the sink's buffer holds), the
# archive honours the cap, and the OBS_TELEMETRY catalog answers.
telemetry-smoke:
	$(GO) build -o bin/perfdmf ./cmd/perfdmf
	@rm -rf bin/telemetry-smoke && mkdir -p bin/telemetry-smoke/db
	bin/perfdmf synth -o bin/telemetry-smoke/fixtures > /dev/null
	bin/perfdmf load -db file:bin/telemetry-smoke/db -telemetry -telemetry-budget=-1 -telemetry-retain-rows=50 -app smoke -exp e1 bin/telemetry-smoke/fixtures/tau-run > bin/telemetry-smoke/load.out
	@stored=$$(sed -n 's/^telemetry: stored=\([0-9][0-9]*\).*/\1/p' bin/telemetry-smoke/load.out); \
	pruned=$$(sed -n 's/^telemetry: .* pruned_spans=\([0-9][0-9]*\).*/\1/p' bin/telemetry-smoke/load.out); \
	dropped=$$(sed -n 's/^telemetry: .* dropped=\([0-9][0-9]*\).*/\1/p' bin/telemetry-smoke/load.out); \
	if [ -z "$$stored" ]; then echo "telemetry-smoke: load printed no pipeline summary"; cat bin/telemetry-smoke/load.out; exit 1; fi; \
	if [ "$$stored" -le 0 ]; then echo "telemetry-smoke: stored=$$stored, want > 0"; cat bin/telemetry-smoke/load.out; exit 1; fi; \
	if [ "$$dropped" != 0 ]; then echo "telemetry-smoke: dropped=$$dropped, want 0"; cat bin/telemetry-smoke/load.out; exit 1; fi; \
	if [ -z "$$pruned" ] || [ "$$pruned" -le 0 ]; then echo "telemetry-smoke: pruned_spans=$$pruned, want > 0 (cap 50)"; cat bin/telemetry-smoke/load.out; exit 1; fi; \
	echo "telemetry-smoke: stored=$$stored dropped=$$dropped pruned_spans=$$pruned"
	bin/perfdmf sql -db file:bin/telemetry-smoke/db "SELECT COUNT(*) FROM PERFDMF_SPANS" > bin/telemetry-smoke/count.out
	@n=$$(sed -n '2p' bin/telemetry-smoke/count.out | tr -d '[:space:]'); \
	if [ -z "$$n" ] || [ "$$n" -lt 1 ] || [ "$$n" -gt 50 ]; then \
		echo "telemetry-smoke: PERFDMF_SPANS has $$n rows, want 1..50"; cat bin/telemetry-smoke/count.out; exit 1; \
	fi; \
	echo "telemetry-smoke: ok ($$n spans retained)"
	bin/perfdmf sql -db file:bin/telemetry-smoke/db "SELECT active, sample_rate, retain_rows FROM OBS_TELEMETRY" > bin/telemetry-smoke/catalog.out
	@grep -q '(1 rows)' bin/telemetry-smoke/catalog.out || { echo "telemetry-smoke: OBS_TELEMETRY did not answer one row"; cat bin/telemetry-smoke/catalog.out; exit 1; }

# Continuous-observability smoke over the real binary: define a threshold
# alert rule, run a telemetry-enabled load whose exec rate breaches it
# (the fixture is loaded 60 times in one process so the load outlives
# several 5ms history scrapes), then run the offline `alerts eval`
# pass in a fresh idle process so the episode the load left open resolves
# against the same row. Asserts the full pending→firing→resolved lifecycle
# landed in OBS_ALERTS (all timestamps set on one row), that metric history
# persisted, and that `perfdmf doctor` flags the load's per-row INSERT
# stream as an N+1 finding naming the statement shape and its root op.
alerts-smoke:
	$(GO) build -o bin/perfdmf ./cmd/perfdmf
	@rm -rf bin/alerts-smoke && mkdir -p bin/alerts-smoke/db
	bin/perfdmf synth -o bin/alerts-smoke/fixtures > /dev/null
	bin/perfdmf alerts add -db file:bin/alerts-smoke/db -name load-exec-rate -metric godbc_exec_total -threshold 1 -window 500ms -for 20ms -severity critical
	bin/perfdmf load -db file:bin/alerts-smoke/db -telemetry -telemetry-budget=-1 -history-every 5ms -app smoke -exp e1 $$(for i in $$(seq 1 60); do echo bin/alerts-smoke/fixtures/tau-run; done) > bin/alerts-smoke/load.out
	bin/perfdmf alerts eval -db file:bin/alerts-smoke/db -settle 1s -every 20ms > bin/alerts-smoke/eval.out
	bin/perfdmf sql -db file:bin/alerts-smoke/db "SELECT rule_name, state, pending_at, firing_at, resolved_at FROM OBS_ALERTS" > bin/alerts-smoke/alerts.out
	@grep 'load-exec-rate' bin/alerts-smoke/alerts.out | grep 'resolved' > bin/alerts-smoke/resolved.out || { \
		echo "alerts-smoke: no resolved episode in OBS_ALERTS"; cat bin/alerts-smoke/alerts.out bin/alerts-smoke/eval.out; exit 1; }
	@if grep -q '<nil>' bin/alerts-smoke/resolved.out; then \
		echo "alerts-smoke: resolved episode is missing a lifecycle timestamp"; cat bin/alerts-smoke/alerts.out; exit 1; fi
	bin/perfdmf sql -db file:bin/alerts-smoke/db "SELECT COUNT(*) FROM PERFDMF_METRICS_HISTORY" > bin/alerts-smoke/hist.out
	@n=$$(sed -n '2p' bin/alerts-smoke/hist.out | tr -d '[:space:]'); \
	if [ -z "$$n" ] || [ "$$n" -lt 1 ]; then \
		echo "alerts-smoke: no persisted metric history"; cat bin/alerts-smoke/hist.out; exit 1; fi; \
	echo "alerts-smoke: alert lifecycle ok ($$n history rows)"
	bin/perfdmf doctor -db file:bin/alerts-smoke/db -json > bin/alerts-smoke/doctor.json
	@grep -q '"rule": "n-plus-one"' bin/alerts-smoke/doctor.json || { \
		echo "alerts-smoke: doctor reported no n-plus-one finding"; cat bin/alerts-smoke/doctor.json; exit 1; }
	@grep -q '"root_op": ' bin/alerts-smoke/doctor.json || { \
		echo "alerts-smoke: n-plus-one finding names no root op"; cat bin/alerts-smoke/doctor.json; exit 1; }
	@grep -q '"statement": ' bin/alerts-smoke/doctor.json || { \
		echo "alerts-smoke: n-plus-one finding names no statement shape"; cat bin/alerts-smoke/doctor.json; exit 1; }
	@echo "alerts-smoke: ok"

# Columnar-execution smoke: the P2 experiment at -quick scale against a
# throwaway output file (the committed BENCH_parallel.json is only
# refreshed by bench-parallel / bench-columnar). The experiment itself
# enforces the ≥3× columnar-vs-row speedup and the row/columnar identity
# check, so a kernel regression fails here in seconds.
columnar-smoke:
	@rm -rf bin/columnar-smoke && mkdir -p bin/columnar-smoke
	$(GO) run ./cmd/experiments -quick -only P2 -obs "" -parallel bin/columnar-smoke/parallel.json
	@grep -q '"speedup_ok": true' bin/columnar-smoke/parallel.json || { \
		echo "columnar-smoke: speedup_ok missing from P2 record"; exit 1; }
	@grep -q '"identical_results": true' bin/columnar-smoke/parallel.json || { \
		echo "columnar-smoke: identical_results missing from P2 record"; exit 1; }
	@echo "columnar-smoke: ok"

bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# Parallel-executor sweep: BenchmarkParallelScan/GroupBy/PlanCache at
# workers 1/2/4/8, then the P1 experiment, which writes the machine-readable
# BENCH_parallel.json (speedups are only meaningful on a multi-core runner —
# check the recorded gomaxprocs).
bench-parallel:
	$(GO) test -run '^$$' -bench 'BenchmarkParallelScan|BenchmarkParallelGroupBy|BenchmarkPlanCache' -benchmem .
	$(GO) run ./cmd/experiments -only P1 -obs "" -parallel BENCH_parallel.json

# Columnar-executor benchmark (P2): times the E3 GROUP BY on the row path
# vs the vectorized columnar path at worker budgets 1/4/8 and refreshes
# the "p2" section of BENCH_parallel.json (the "p1" section is preserved
# by the read-modify-write writer). The experiment fails unless columnar
# beats the row path ≥3× at one worker with bitwise-identical results;
# the greps re-assert both verdicts on the committed artifact so a stale
# JSON can't pass.
bench-columnar:
	$(GO) run ./cmd/experiments -only P2 -obs "" -parallel BENCH_parallel.json
	@grep -q '"speedup_ok": true' BENCH_parallel.json || { \
		echo "bench-columnar: BENCH_parallel.json lacks speedup_ok: true"; exit 1; }
	@grep -q '"identical_results": true' BENCH_parallel.json || { \
		echo "bench-columnar: BENCH_parallel.json lacks identical_results: true"; exit 1; }

# Tracing-overhead benchmark (T1): times the E1 upload with tracing off,
# on, and with governed span persistence, and writes BENCH_trace.json.
# The experiment itself fails if either the traced or the persisted
# overhead exceeds the 5% budget; the grep re-asserts the persisted
# verdict on the artifact so a stale JSON can't pass.
bench-trace:
	$(GO) run ./cmd/experiments -only T1 -obs "" -trace BENCH_trace.json
	@grep -q '"persisted_within_budget": true' BENCH_trace.json || { \
		echo "bench-trace: BENCH_trace.json lacks persisted_within_budget: true"; exit 1; }

experiments:
	$(GO) run ./cmd/experiments -quick

clean:
	rm -rf bin BENCH_obs.json
