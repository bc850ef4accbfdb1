# Development entry points; CI (.github/workflows/ci.yml) runs the same
# commands.

GO ?= go

# Traffic-simulator knobs (cmd/alexsim): sim-smoke is the per-PR gate,
# sim-soak the nightly long run (.github/workflows/soak.yml).
SIM         = $(GO) run ./cmd/alexsim
SIM_ROUNDS ?= 300
SOAK_ROUNDS ?= 2000
SOAK_SEED  ?= 1

.PHONY: build test test-short race bench fuzz cover fmt vet lint sim-smoke sim-soak check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# The race-detector run, and CI's only copy of its package list
# (.github/workflows/ci.yml calls this target). Among its race checks:
# internal/core's TestEngineSharesOneDS2Side (8 partitions reading one
# feature.RightSide while engine-driven deltas update it between fan-outs),
# internal/linkset's TestCompareWhileWritersWait (the lock guarding the
# Set's sorted view; also its deadlock check), internal/sim's
# TestJaroMatchesReference (the bit-parallel Jaro kernel against its scalar
# reference through one long-lived Scratch), and internal/rdf's striped
# dictionary tests (TestDictParallelInternOverlappingSets,
# TestDictConcurrentReadersWriters).
race:
	$(GO) test -race ./internal/linkset/... ./internal/sparql/... ./internal/fed/... ./internal/endpoint/... ./internal/core/... ./internal/obs/... ./internal/store/... ./internal/rdf/... ./internal/sim/... ./internal/feature/... ./internal/experiment/...

fuzz:
	$(GO) test ./internal/rdf/    -run '^$$' -fuzz '^FuzzNTriples$$' -fuzztime 10s
	$(GO) test ./internal/rdf/    -run '^$$' -fuzz '^FuzzTurtle$$'   -fuzztime 10s
	$(GO) test ./internal/sparql/ -run '^$$' -fuzz '^FuzzParse$$'    -fuzztime 10s
	$(GO) test ./internal/sparql/ -run '^$$' -fuzz '^FuzzTokenize$$' -fuzztime 10s
	$(GO) test ./internal/sparql/ -run '^$$' -fuzz '^FuzzNormalizeQuery$$' -fuzztime 10s
	$(GO) test ./internal/sparql/ -run '^$$' -fuzz '^FuzzEvalEquivalence$$' -fuzztime 10s
	$(GO) test ./internal/store/  -run '^$$' -fuzz '^FuzzReadSnapshot$$'  -fuzztime 10s
	$(GO) test ./internal/sim/    -run '^$$' -fuzz '^FuzzGeneric$$'  -fuzztime 10s
	$(GO) test ./internal/sim/    -run '^$$' -fuzz '^FuzzJaro$$'     -fuzztime 10s
	$(GO) test ./internal/feature/ -run '^$$' -fuzz '^FuzzScoreMemo$$' -fuzztime 10s
	$(GO) test ./internal/core/    -run '^$$' -fuzz '^FuzzEpisodeEquivalence$$' -fuzztime 10s

cover:
	$(GO) test -cover ./...

# Every Benchmark* function once: they are profiling harnesses, not a gate.
# Performance is gated end to end by bench/ (BENCHMARK.json).
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

fmt:
	gofmt -l -w .

vet:
	$(GO) vet ./...

# The repo's own static-analysis suite (internal/lint, cmd/alexvet).
lint:
	$(GO) run ./cmd/alexvet ./...

# The traffic-simulator smoke gate: every run checks the live-world
# invariants (exit 1 on violation), and the op logs must be byte-identical
# across worker counts (seed 42), across repeat runs (seed 7), and with
# the serving caches + admission controller on vs off (seed 42) — caches
# must be answer- and log-invisible. Each run covers a scheduled NYTimes
# outage window with breaker recovery asserted. The durable pair runs DS1
# on a snapshot+WAL data directory with mid-run kill-and-recover
# (crash_restart) ops: those logs must be byte-identical across worker
# counts AND fsync policies — durability must never leak into answers.
# The streaming pair enables live store growth + POST /feedback ingestion
# (live_upsert/feedback_http ops): those logs too must be byte-identical
# across worker counts — stream batching must never reorder results.
sim-smoke:
	$(SIM) -seed 42 -rounds $(SIM_ROUNDS) -workers 4 -quiet -oplog simlog_42_w4.log
	$(SIM) -seed 42 -rounds $(SIM_ROUNDS) -workers 1 -quiet -oplog simlog_42_w1.log
	cmp simlog_42_w4.log simlog_42_w1.log
	$(SIM) -seed 42 -rounds $(SIM_ROUNDS) -workers 4 -cache -quiet -oplog simlog_42_cache.log
	cmp simlog_42_w4.log simlog_42_cache.log
	$(SIM) -seed 7 -rounds $(SIM_ROUNDS) -quiet -oplog simlog_7_a.log
	$(SIM) -seed 7 -rounds $(SIM_ROUNDS) -quiet -oplog simlog_7_b.log
	cmp simlog_7_a.log simlog_7_b.log
	$(SIM) -seed 42 -rounds $(SIM_ROUNDS) -workers 4 -data-dir simdur_w4 -quiet -oplog simlog_42_d4.log
	$(SIM) -seed 42 -rounds $(SIM_ROUNDS) -workers 1 -data-dir simdur_w1 -wal-fsync off -quiet -oplog simlog_42_d1.log
	cmp simlog_42_d4.log simlog_42_d1.log
	$(SIM) -seed 58 -rounds $(SIM_ROUNDS) -workers 4 -stream -quiet -oplog simlog_58_s4.log
	$(SIM) -seed 58 -rounds $(SIM_ROUNDS) -workers 1 -stream -quiet -oplog simlog_58_s1.log
	cmp simlog_58_s4.log simlog_58_s1.log
	rm -rf simdur_w4 simdur_w1
	rm -f simlog_42_w4.log simlog_42_w1.log simlog_42_cache.log simlog_7_a.log simlog_7_b.log simlog_42_d4.log simlog_42_d1.log simlog_58_s4.log simlog_58_s1.log

# The nightly soak: a longer, larger-scale run with the default mid-run
# outage window, writing the JSON report (run totals plus per-op-kind
# p50/p99 latencies), a Markdown summary for the CI step summary, and the full op log. The soak
# runs DS1 durably so crash_restart recovery is exercised at scale.
sim-soak:
	$(SIM) -seed $(SOAK_SEED) -rounds $(SOAK_ROUNDS) -ops-per-round 10 -scale 0.5 \
	    -data-dir SIM_soak_data \
	    -report SIM_soak.json -summary SIM_soak.md -oplog SIM_soak.log -quiet

check: build vet lint test race sim-smoke
