package traffic

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"alex/internal/faultinject"
	"alex/internal/obs"
)

// testConfig is a small, fast run shape shared by the tests.
func testConfig(seed int64, workers int, log *bytes.Buffer) Config {
	return Config{
		Seed:        seed,
		Rounds:      12,
		OpsPerRound: 5,
		Workers:     workers,
		Scale:       0.12,
		SampleEvery: 8,
		Obs:         obs.NewRegistry(),
		OpLog:       log,
	}
}

func mustRun(t *testing.T, cfg Config) *Report {
	t.Helper()
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return rep
}

func TestRunCleanAndCounts(t *testing.T) {
	var log bytes.Buffer
	rep := mustRun(t, testConfig(7, 4, &log))
	if n := len(rep.Violations); n != 0 {
		t.Fatalf("violations = %d, want 0:\n%v", n, rep.Violations)
	}
	if want := 12 * 5; rep.Ops != want {
		t.Errorf("ops = %d, want %d", rep.Ops, want)
	}
	if rep.Episodes == 0 {
		t.Error("no feedback episodes ran; weights should include feedback")
	}
	if rep.HTTPServed == 0 {
		t.Error("no HTTP requests served; endpoint ops did not hit the wire")
	}
	for _, line := range []string{"inv drain_clean ok", "inv http_accounting", "# run complete"} {
		if !strings.Contains(log.String(), line) {
			t.Errorf("op log missing %q", line)
		}
	}
}

// TestRunDeterministicAcrossWorkers is the core contract: the same seed
// must produce a byte-identical op log and equal outcomes at any worker
// count.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	var log1, log8 bytes.Buffer
	rep1 := mustRun(t, testConfig(42, 1, &log1))
	rep8 := mustRun(t, testConfig(42, 8, &log8))
	if !bytes.Equal(log1.Bytes(), log8.Bytes()) {
		t.Fatalf("op logs differ between workers=1 and workers=8:\n--- w1 ---\n%s\n--- w8 ---\n%s",
			firstDiff(log1.String(), log8.String()), "")
	}
	if len(rep1.Violations) != 0 || len(rep8.Violations) != 0 {
		t.Fatalf("violations: w1=%v w8=%v", rep1.Violations, rep8.Violations)
	}
	if rep1.Candidates != rep8.Candidates || rep1.Episodes != rep8.Episodes {
		t.Errorf("outcomes differ: w1 candidates=%d episodes=%d, w8 candidates=%d episodes=%d",
			rep1.Candidates, rep1.Episodes, rep8.Candidates, rep8.Episodes)
	}
}

// TestRunCacheTransparent is the serving-layer soundness contract: with
// the endpoint behind the prepared-query/result caches and the admission
// controller (Config.Cache), the op log — every row count and result
// digest included — must be byte-identical to the uncached run of the
// same seed, at any worker count, with zero violations (in particular no
// cache_coherence violation from mutate_reread's read-backs and no
// admission_no_shed violation from the controller).
func TestRunCacheTransparent(t *testing.T) {
	var logOff, logOn, logOn1 bytes.Buffer
	repOff := mustRun(t, testConfig(42, 4, &logOff))
	cfgOn := testConfig(42, 4, &logOn)
	cfgOn.Cache = true
	repOn := mustRun(t, cfgOn)
	cfgOn1 := testConfig(42, 1, &logOn1)
	cfgOn1.Cache = true
	repOn1 := mustRun(t, cfgOn1)
	if len(repOff.Violations) != 0 || len(repOn.Violations) != 0 || len(repOn1.Violations) != 0 {
		t.Fatalf("violations: off=%v on=%v on-w1=%v",
			repOff.Violations, repOn.Violations, repOn1.Violations)
	}
	if !bytes.Equal(logOff.Bytes(), logOn.Bytes()) {
		t.Errorf("cache on/off logs differ at %s", firstDiff(logOff.String(), logOn.String()))
	}
	if !bytes.Equal(logOn.Bytes(), logOn1.Bytes()) {
		t.Errorf("cached logs differ across workers at %s", firstDiff(logOn.String(), logOn1.String()))
	}
	// The cached run must actually have exercised the cache: the hot-query
	// pool guarantees repeats, so at least one result-cache hit.
	hits := cfgOn.Obs.Counter(obs.EndpointResultHits).Value()
	if hits == 0 {
		t.Error("cached run recorded no result-cache hits")
	}
	if cfgOn.Obs.Counter(obs.EndpointPreparedHits).Value() == 0 {
		t.Error("cached run recorded no prepared-cache hits")
	}
}

// TestMutateRereadCoherence pins the cache-coherence probe itself: a run
// weighted toward mutate_reread and repeat_query completes clean with the
// cache on, and its log carries seen=true read-backs.
func TestMutateRereadCoherence(t *testing.T) {
	var log bytes.Buffer
	cfg := testConfig(9, 4, &log)
	cfg.Cache = true
	cfg.Weights = map[string]int{
		OpRepeatQuery:  40,
		OpMutateReread: 30,
		OpSelectEntity: 20,
	}
	rep := mustRun(t, cfg)
	if n := len(rep.Violations); n != 0 {
		t.Fatalf("violations = %d:\n%v", n, rep.Violations)
	}
	text := log.String()
	if !strings.Contains(text, "mutate_reread") || !strings.Contains(text, "seen=true") {
		t.Error("op log missing mutate_reread read-backs")
	}
	if strings.Contains(text, "seen=false") {
		t.Error("op log contains a stale read-back")
	}
}

// TestRunDurableCrashRestart runs with a data directory, so DS1 is
// write-ahead logged and the auto-weighted crash_restart op kill-and-
// recovers it mid-run. The run must stay violation-free (in particular no
// durability_equiv: every recovery byte- and read-identical to the live
// store) and the log must carry crash_restart lines with passing
// equivalence fields and the durable shutdown invariant.
func TestRunDurableCrashRestart(t *testing.T) {
	var log bytes.Buffer
	cfg := testConfig(21, 4, &log)
	cfg.Rounds = 10
	cfg.OpsPerRound = 8
	cfg.DataDir = t.TempDir()
	rep := mustRun(t, cfg)
	if n := len(rep.Violations); n != 0 {
		t.Fatalf("violations = %d:\n%v", n, rep.Violations)
	}
	text := log.String()
	if !strings.Contains(text, "crash_restart") {
		t.Fatal("op log has no crash_restart ops; the durable default weights should include it")
	}
	if !strings.Contains(text, "snap_equal=true reads_equal=true") {
		t.Error("op log has no passing crash_restart equivalence line")
	}
	if strings.Contains(text, "equal=false") {
		t.Error("op log records a failed recovery equivalence")
	}
	if !strings.Contains(text, "inv durability_close ok") {
		t.Error("op log missing the durable shutdown invariant")
	}
}

// TestRunDurableDeterministicAcrossWorkers extends the determinism
// contract to durable runs: same seed, different worker counts and
// different data directories must still produce byte-identical op logs
// (the log never mentions the path, and crash_restart is a serial
// barrier).
func TestRunDurableDeterministicAcrossWorkers(t *testing.T) {
	var log1, log4 bytes.Buffer
	cfg1 := testConfig(33, 1, &log1)
	cfg1.DataDir = t.TempDir()
	cfg4 := testConfig(33, 4, &log4)
	cfg4.DataDir = t.TempDir()
	rep1 := mustRun(t, cfg1)
	rep4 := mustRun(t, cfg4)
	if len(rep1.Violations) != 0 || len(rep4.Violations) != 0 {
		t.Fatalf("violations: w1=%v w4=%v", rep1.Violations, rep4.Violations)
	}
	if !bytes.Equal(log1.Bytes(), log4.Bytes()) {
		t.Fatalf("durable op logs differ between workers=1 and workers=4 at %s",
			firstDiff(log1.String(), log4.String()))
	}
}

// TestRunDurableWALSyncModes pins that the fsync policy affects neither
// the op log nor recovery equivalence for in-process kills.
func TestRunDurableWALSyncModes(t *testing.T) {
	logs := make(map[string]*bytes.Buffer)
	for _, mode := range []string{"batch", "always", "off"} {
		var log bytes.Buffer
		cfg := testConfig(14, 2, &log)
		cfg.Rounds = 6
		cfg.DataDir = t.TempDir()
		cfg.WALSync = mode
		rep := mustRun(t, cfg)
		if n := len(rep.Violations); n != 0 {
			t.Fatalf("mode %s: violations = %d:\n%v", mode, n, rep.Violations)
		}
		logs[mode] = &log
	}
	if !bytes.Equal(logs["batch"].Bytes(), logs["always"].Bytes()) ||
		!bytes.Equal(logs["batch"].Bytes(), logs["off"].Bytes()) {
		t.Fatal("op logs differ across WAL fsync modes")
	}
}

// TestRunStreamDeterministicAcrossWorkers extends the determinism
// contract to streaming runs: with live_upsert and feedback_http in the
// mix (Config.Stream), the same seed must still produce byte-identical
// op logs at any worker count, with zero violations, and both new op
// kinds must actually have run.
func TestRunStreamDeterministicAcrossWorkers(t *testing.T) {
	var log1, log4 bytes.Buffer
	cfg1 := testConfig(58, 1, &log1)
	cfg1.Stream = true
	cfg4 := testConfig(58, 4, &log4)
	cfg4.Stream = true
	rep1 := mustRun(t, cfg1)
	rep4 := mustRun(t, cfg4)
	if len(rep1.Violations) != 0 || len(rep4.Violations) != 0 {
		t.Fatalf("violations: w1=%v w4=%v", rep1.Violations, rep4.Violations)
	}
	if !bytes.Equal(log1.Bytes(), log4.Bytes()) {
		t.Fatalf("streaming op logs differ between workers=1 and workers=4 at %s",
			firstDiff(log1.String(), log4.String()))
	}
	text := log1.String()
	for _, line := range []string{"live_upsert", "feedback_http", "inv stream_drained"} {
		if !strings.Contains(text, line) {
			t.Errorf("op log missing %q", line)
		}
	}
	if cfg1.Obs.Counter(obs.CoreStreamSubmitted).Value() == 0 {
		t.Error("streaming run recorded no stream submissions")
	}
	if cfg1.Obs.Counter(obs.FeatureDeltaUpserts).Value() == 0 {
		t.Error("streaming run recorded no feature-space upserts")
	}
}

// TestStreamOpsRequireStream pins the validation coupling.
func TestStreamOpsRequireStream(t *testing.T) {
	cfg := testConfig(1, 1, nil)
	cfg.Weights = map[string]int{OpSelectEntity: 1, OpFeedbackHTTP: 1}
	if _, err := Run(context.Background(), cfg); err == nil {
		t.Fatal("feedback_http weight without Stream accepted")
	}
	cfg.Weights = map[string]int{OpSelectEntity: 1, OpLiveUpsert: 1}
	if _, err := Run(context.Background(), cfg); err == nil {
		t.Fatal("live_upsert weight without Stream accepted")
	}
}

func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := range al {
		if i >= len(bl) || al[i] != bl[i] {
			return "line " + al[i]
		}
	}
	return "(b longer than a)"
}

// TestRunDifferentSeedsDiffer guards against the scheduler ignoring the
// seed.
func TestRunDifferentSeedsDiffer(t *testing.T) {
	var log1, log2 bytes.Buffer
	mustRun(t, testConfig(1, 2, &log1))
	mustRun(t, testConfig(2, 2, &log2))
	if bytes.Equal(log1.Bytes(), log2.Bytes()) {
		t.Fatal("different seeds produced identical op logs")
	}
}

// TestOutageBreakerRecovery drives a scheduled outage window dense enough
// in federated traffic for the breaker to open, and requires both the
// breaker_open and breaker_recovery invariant lines to pass.
func TestOutageBreakerRecovery(t *testing.T) {
	var log bytes.Buffer
	cfg := Config{
		Seed:        11,
		Rounds:      14,
		OpsPerRound: 8,
		Workers:     4,
		Scale:       0.12,
		Outages:     []faultinject.Window{{Source: "NYTimes", From: 4, To: 9}},
		Weights: map[string]int{
			OpFedJoin:  60,
			OpFedAsk:   20,
			OpFeedback: 10,
		},
		Obs:   obs.NewRegistry(),
		OpLog: &log,
	}
	rep := mustRun(t, cfg)
	if n := len(rep.Violations); n != 0 {
		t.Fatalf("violations = %d:\n%v", n, rep.Violations)
	}
	text := log.String()
	for _, line := range []string{
		"outage NYTimes down",
		"inv breaker_open source=NYTimes",
		"outage NYTimes up",
		"inv breaker_recovery source=NYTimes state=closed ok",
	} {
		if !strings.Contains(text, line) {
			t.Errorf("op log missing %q", line)
		}
	}
	if rep.OutageTransitions < 2 {
		t.Errorf("outage transitions = %d, want >= 2", rep.OutageTransitions)
	}
}

// TestShadowOracleRuns checks the sampled re-execution actually fires and
// passes on a clean run.
func TestShadowOracleRuns(t *testing.T) {
	var log bytes.Buffer
	cfg := testConfig(5, 4, &log)
	cfg.SampleEvery = 4
	mustRun(t, cfg)
	if !strings.Contains(log.String(), "inv shadow_oracle op=") {
		t.Error("no shadow_oracle lines in op log")
	}
}

// TestHeapBoundViolation sets an impossible heap bound and expects the
// run to complete with recorded violations rather than an error.
func TestHeapBoundViolation(t *testing.T) {
	var log bytes.Buffer
	cfg := testConfig(3, 2, &log)
	cfg.Rounds = 2
	cfg.MaxHeapBytes = 1
	rep := mustRun(t, cfg)
	if len(rep.Violations) == 0 {
		t.Fatal("expected heap_bound violations, got none")
	}
	for _, v := range rep.Violations {
		if v.Invariant != "heap_bound" {
			t.Errorf("unexpected violation %v", v)
		}
	}
	if !strings.Contains(log.String(), "inv heap_bound VIOLATION") {
		t.Error("op log missing the heap_bound violation line")
	}
}

func TestConfigValidation(t *testing.T) {
	base := func() Config { return testConfig(1, 1, nil) }
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero rounds", func(c *Config) { c.Rounds = 0 }},
		{"zero ops", func(c *Config) { c.OpsPerRound = 0 }},
		{"unknown weight kind", func(c *Config) { c.Weights = map[string]int{"nonsense": 1} }},
		{"all zero weights", func(c *Config) { c.Weights = map[string]int{OpFedJoin: 0} }},
		{"negative weight", func(c *Config) { c.Weights = map[string]int{OpFedJoin: -1} }},
		{"unknown outage source", func(c *Config) {
			c.Outages = []faultinject.Window{{Source: "nope", From: 1, To: 2}}
		}},
		{"outage past last round", func(c *Config) {
			c.Outages = []faultinject.Window{{Source: "NYTimes", From: 1, To: 99}}
		}},
		{"crash_restart without DataDir", func(c *Config) {
			c.Weights = map[string]int{OpSelectEntity: 1, OpCrashRestart: 1}
		}},
		{"bad wal sync mode", func(c *Config) {
			c.DataDir = t.TempDir()
			c.WALSync = "sometimes"
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base()
			tc.mutate(&cfg)
			if _, err := Run(context.Background(), cfg); err == nil {
				t.Fatal("Run accepted an invalid config")
			}
		})
	}
}

// TestCanceledContext must abort with an error, not hang or report clean.
func TestCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, testConfig(1, 1, nil)); err == nil {
		t.Fatal("Run ignored a canceled context")
	}
}
