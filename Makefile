# Development entry points; CI (.github/workflows/ci.yml) runs the same
# commands.

GO ?= go

# The benchmarks pinned by the CI regression gate: bulk loading, dictionary
# interning, exploration (feature-space range scans and engine episodes),
# the single-store engine (its headline join, planned vs written join
# order), the federated processor (join reorderer plus an
# end-to-end cross-source join), the serving layer (repeat-query
# cold/hit pair whose ratio is the cache win, and the saturated-endpoint
# latency), durable recovery (snapshot reload vs the re-parse it
# replaces — the pair whose ratio README's durability section quotes)
# and streaming maintenance (the Space rebuild/upsert pair whose ratio is
# the incremental-delta win README's streaming section quotes, plus the
# live POST /feedback round trip), and feature-space construction with
# its string kernel (FeatureSpaceBuild, SimilarityStringSim — what
# link_batch's core.New spends its time in; see PERF.md), and link
# republication (Republish: Engine.Candidates + fed.SetLinks after one
# applied feedback batch — feedback_loop's judgement-to-visible-link step).
# Keep this list in sync with the "Performance" section of README.md.
BENCH_GATE_RE   = ^(BenchmarkLoadNTriples|BenchmarkLoadIncremental|BenchmarkStoreRecover|BenchmarkDictIntern(Parallel)?|BenchmarkFeatureExplore|BenchmarkFeatureSpaceBuild|BenchmarkSimilarityStringSim|BenchmarkEngineEpisode|BenchmarkRepublish|BenchmarkSpaceRebuild|BenchmarkSpaceUpsert|BenchmarkEvalSlotRows|BenchmarkEvalPlanOrder|BenchmarkFedJoinReorder|BenchmarkFedQueryEndToEnd|BenchmarkEndpointRepeatQuery(Cold|Hit)|BenchmarkEndpointSaturation|BenchmarkEndpointFeedback)$$
BENCH_GATE_PKGS = .,./internal/store,./internal/rdf,./internal/endpoint
BENCH_COUNT    ?= 5
# Time-based so sub-millisecond benchmarks average many iterations (one
# 1x iteration of a microsecond benchmark is mostly timer noise) while the
# ~100ms loader benchmarks still run just once per sample.
BENCH_TIME     ?= 100ms

# Traffic-simulator knobs (cmd/alexsim): sim-smoke is the per-PR gate,
# sim-soak the nightly long run (.github/workflows/soak.yml).
SIM         = $(GO) run ./cmd/alexsim
SIM_ROUNDS ?= 300
SOAK_ROUNDS ?= 2000
SOAK_SEED  ?= 1

.PHONY: build test test-short race bench bench-json bench-gate fuzz cover fmt vet lint sim-smoke sim-soak check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

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

cover:
	$(GO) test -cover ./...

bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# Run the pinned gate suite and write BENCH_<LABEL>.json for committing
# alongside a PR (e.g. `make bench-json LABEL=pr4`).
bench-json:
ifndef LABEL
	$(error usage: make bench-json LABEL=<name>)
endif
	$(GO) run ./cmd/alexbench run -label $(LABEL) -bench '$(BENCH_GATE_RE)' -pkgs '$(BENCH_GATE_PKGS)' -count $(BENCH_COUNT) -benchtime $(BENCH_TIME)

# The CI regression gate: benchmark the working tree and compare against
# the committed baseline, failing on >10% mean slowdown beyond noise.
bench-gate:
	$(GO) run ./cmd/alexbench run -label gate -bench '$(BENCH_GATE_RE)' -pkgs '$(BENCH_GATE_PKGS)' -count $(BENCH_COUNT) -benchtime $(BENCH_TIME) -o BENCH_gate.json
	$(GO) run ./cmd/alexbench compare -old BENCH_baseline.json -new BENCH_gate.json -threshold 0.10

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
# outage window, writing the JSON report (alexbench-compatible), a
# Markdown summary for the CI step summary, and the full op log. The soak
# runs DS1 durably so crash_restart recovery is exercised at scale.
sim-soak:
	$(SIM) -seed $(SOAK_SEED) -rounds $(SOAK_ROUNDS) -ops-per-round 10 -scale 0.5 \
	    -data-dir SIM_soak_data \
	    -report SIM_soak.json -summary SIM_soak.md -oplog SIM_soak.log -quiet

check: build vet lint test race sim-smoke
