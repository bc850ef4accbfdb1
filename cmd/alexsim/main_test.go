package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runSim drives the whole command in-process and returns (exit, stdout,
// stderr).
func runSim(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestSmokeCleanRun(t *testing.T) {
	code, stdout, stderr := runSim(t,
		"-seed", "42", "-rounds", "8", "-ops-per-round", "4", "-scale", "0.1")
	if code != 0 {
		t.Fatalf("exit = %d, want 0; stderr:\n%s", code, stderr)
	}
	for _, want := range []string{"### alexsim: seed 42", "violations **0**", "| op | count |"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout missing %q:\n%s", want, stdout)
		}
	}
}

// TestSeedReproducible runs the same seed twice and requires byte-equal
// op logs — the gate CI enforces on every PR.
func TestSeedReproducible(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.log")
	b := filepath.Join(dir, "b.log")
	for _, path := range []string{a, b} {
		code, _, stderr := runSim(t,
			"-seed", "7", "-rounds", "8", "-ops-per-round", "4", "-scale", "0.1",
			"-quiet", "-oplog", path)
		if code != 0 {
			t.Fatalf("exit = %d; stderr:\n%s", code, stderr)
		}
	}
	la, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(la, lb) {
		t.Fatal("op logs differ between two runs of the same seed")
	}
	if len(la) == 0 {
		t.Fatal("op log is empty")
	}
}

// TestDurableRunClean drives the CLI with -data-dir: the run attaches the
// durable layer, crash/recovers it mid-run via the auto-weighted
// crash_restart op, and must exit clean with crash lines in the log.
func TestDurableRunClean(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "sim.log")
	code, _, stderr := runSim(t,
		"-seed", "21", "-rounds", "8", "-ops-per-round", "6", "-scale", "0.1",
		"-quiet", "-data-dir", filepath.Join(dir, "state"), "-wal-fsync", "off",
		"-oplog", logPath)
	if code != 0 {
		t.Fatalf("exit = %d, want 0; stderr:\n%s", code, stderr)
	}
	log, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(log), "crash_restart") {
		t.Error("durable run scheduled no crash_restart ops")
	}
	if strings.Contains(string(log), "equal=false") {
		t.Error("op log records a failed recovery equivalence")
	}
}

// TestStreamRunClean drives the CLI with -stream: the run serves POST
// /feedback over the wire and grows the stores live, and must exit clean
// with both streaming op kinds in the log.
func TestStreamRunClean(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "sim.log")
	code, _, stderr := runSim(t,
		"-seed", "58", "-rounds", "10", "-ops-per-round", "6", "-scale", "0.1",
		"-quiet", "-stream", "-oplog", logPath)
	if code != 0 {
		t.Fatalf("exit = %d, want 0; stderr:\n%s", code, stderr)
	}
	log, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"feedback_http", "live_upsert", "inv stream_drained"} {
		if !strings.Contains(string(log), want) {
			t.Errorf("streaming op log missing %q", want)
		}
	}
}

func TestReportAndSummaryFiles(t *testing.T) {
	dir := t.TempDir()
	report := filepath.Join(dir, "SIM.json")
	summary := filepath.Join(dir, "summary.md")
	code, _, stderr := runSim(t,
		"-seed", "3", "-rounds", "6", "-ops-per-round", "4", "-scale", "0.1",
		"-quiet", "-report", report, "-summary", summary)
	if code != 0 {
		t.Fatalf("exit = %d; stderr:\n%s", code, stderr)
	}
	raw, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		Seed     int64              `json:"seed"`
		Ops      int                `json:"ops"`
		OpCounts map[string]int     `json:"op_counts"`
		P50NS    map[string]float64 `json:"p50_ns"`
		P99NS    map[string]float64 `json:"p99_ns"`
	}
	if err := json.Unmarshal(raw, &parsed); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if parsed.Seed != 3 || parsed.Ops != 24 {
		t.Errorf("report fields = %+v, want seed=3 ops=24", parsed)
	}
	if len(parsed.OpCounts) == 0 {
		t.Error("report has no op_counts")
	}
	md, err := os.ReadFile(summary)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(md), "### alexsim: seed 3") {
		t.Errorf("summary missing header:\n%s", md)
	}
	for kind, n := range parsed.OpCounts {
		if parsed.P50NS[kind] <= 0 || parsed.P99NS[kind] < parsed.P50NS[kind] {
			t.Errorf("op %s: p50 = %g, p99 = %g; want 0 < p50 <= p99", kind, parsed.P50NS[kind], parsed.P99NS[kind])
		}
		if row := fmt.Sprintf("| %s | %d | ", kind, n); !strings.Contains(string(md), row) {
			t.Errorf("summary has no row starting %q:\n%s", row, md)
		}
	}
}

// TestViolationExitCode forces a heap-bound violation and expects exit 1
// with the violation on stderr.
func TestViolationExitCode(t *testing.T) {
	code, _, stderr := runSim(t,
		"-seed", "1", "-rounds", "2", "-ops-per-round", "2", "-scale", "0.1",
		"-quiet", "-max-heap", "1")
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "invariant violation") || !strings.Contains(stderr, "heap_bound") {
		t.Errorf("stderr missing violation detail:\n%s", stderr)
	}
}

func TestUsageErrors(t *testing.T) {
	cases := [][]string{
		{"-definitely-not-a-flag"},
		{"positional"},
		{"-rounds", "25", "-outage-from", "3"},           // -outage-to missing
		{"-rounds", "0"},                                 // rejected by traffic.Config
		{"-rounds", "10", "-ops-per-round", "0"},         // rejected by traffic.Config
		{"-rounds", "5", "-oplog", "/nonexistent/x.log"}, // unwritable oplog
	}
	for _, args := range cases {
		if code, _, _ := runSim(t, args...); code != 2 {
			t.Errorf("run(%v) exit = %d, want 2", args, code)
		}
	}
}
