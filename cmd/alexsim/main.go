// Command alexsim drives the ALEX stack with deterministic, seeded,
// weighted-operation traffic: entity SELECT/ASK queries against a live
// in-process SPARQL endpoint, federated joins with sameAs rewrites,
// feedback episodes through the engine, bulk loads, and scheduled source
// outages with recovery — while continuously checking invariants (no
// panics, breaker recovery, blacklist/confirmed-link retention, bounded
// resources, a sampled shadow oracle).
//
// Usage:
//
//	alexsim -seed 42 -rounds 300 -report SIM.json -oplog sim.log
//
// The op log is byte-identical for the same seed at any -workers setting;
// CI diffs two runs to enforce it. The JSON report holds the run totals,
// each op kind's count and p50/p99 latency, the engine's link quality and
// any invariant violations; -summary renders it as Markdown.
//
// Exit codes: 0 clean, 1 invariant violations, 2 usage or setup error.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"alex/internal/faultinject"
	"alex/internal/obs"
	"alex/internal/traffic"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with injectable args and streams, so tests can drive the
// whole command in-process. It returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("alexsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 1, "seed for the run; equal seeds reproduce byte-identical op logs")
	rounds := fs.Int("rounds", 100, "simulation rounds (the outage schedule's logical clock)")
	opsPerRound := fs.Int("ops-per-round", 8, "weighted operations per round")
	workers := fs.Int("workers", 0, "concurrent read-op workers (0 = GOMAXPROCS); does not affect the op log")
	scale := fs.Float64("scale", 0.25, "data-set scale (1.0 = the paper benchmarks' DBpedia/NYTimes scenario)")
	sampleEvery := fs.Int("sample-every", 16, "shadow-check every Nth read op (0 disables)")
	cache := fs.Bool("cache", false, "serve the endpoint through the query caches and admission controller; must not change the op log")
	stream := fs.Bool("stream", false, "run the streaming loop: POST /feedback ingestion plus live store growth (live_upsert/feedback_http ops); op log stays worker-independent")
	dataDir := fs.String("data-dir", "", "run DS1 durably (snapshot+WAL) in this directory and crash/recover it mid-run; must not change the op log")
	walFsync := fs.String("wal-fsync", "", "WAL fsync policy with -data-dir: batch (default), always, off")
	outageFrom := fs.Int("outage-from", -1, "round at which the NYTimes source goes down (-1 = auto when rounds >= 20)")
	outageTo := fs.Int("outage-to", -1, "round at which the NYTimes source recovers (-1 = auto)")
	maxGoroutines := fs.Int("max-goroutine-growth", 0, "goroutine growth bound over baseline (0 = default)")
	maxHeap := fs.Uint64("max-heap", 0, "heap bound in bytes at round ends (0 = default)")
	reportPath := fs.String("report", "", "write the JSON report to this file")
	oplogPath := fs.String("oplog", "", "write the deterministic op log to this file (- for stdout)")
	summaryPath := fs.String("summary", "", "write a Markdown summary to this file (for CI step summaries)")
	quiet := fs.Bool("quiet", false, "suppress the Markdown summary on stdout")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "alexsim: unexpected arguments: %v\n", fs.Args())
		return 2
	}

	var outages []faultinject.Window
	from, to := *outageFrom, *outageTo
	if from < 0 && to < 0 && *rounds >= 20 {
		// Default soak shape: one mid-run outage of the NYTimes member,
		// long enough for the breaker to open and recovery to be asserted.
		from = *rounds / 3
		to = from + *rounds/5
	}
	if from >= 0 || to >= 0 {
		if from < 0 || to < 0 {
			fmt.Fprintln(stderr, "alexsim: -outage-from and -outage-to must be set together")
			return 2
		}
		outages = append(outages, faultinject.Window{Source: "NYTimes", From: from, To: to})
	}

	var oplog io.Writer
	var oplogFile *os.File
	switch *oplogPath {
	case "":
	case "-":
		oplog = stdout
	default:
		f, err := os.Create(*oplogPath)
		if err != nil {
			fmt.Fprintf(stderr, "alexsim: %v\n", err)
			return 2
		}
		oplogFile = f
		oplog = f
	}

	reg := obs.NewRegistry()
	report, err := traffic.Run(context.Background(), traffic.Config{
		Seed:               *seed,
		Rounds:             *rounds,
		OpsPerRound:        *opsPerRound,
		Workers:            *workers,
		Scale:              *scale,
		SampleEvery:        *sampleEvery,
		Cache:              *cache,
		Stream:             *stream,
		DataDir:            *dataDir,
		WALSync:            *walFsync,
		Outages:            outages,
		MaxGoroutineGrowth: *maxGoroutines,
		MaxHeapBytes:       *maxHeap,
		Now:                time.Now,
		Obs:                reg,
		OpLog:              oplog,
	})
	if oplogFile != nil {
		if cerr := oplogFile.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "alexsim: %v\n", err)
		return 2
	}

	if *reportPath != "" {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintf(stderr, "alexsim: encode report: %v\n", err)
			return 2
		}
		if err := os.WriteFile(*reportPath, buf.Bytes(), 0o644); err != nil {
			fmt.Fprintf(stderr, "alexsim: %v\n", err)
			return 2
		}
	}
	summary := report.MarkdownSummary()
	if *summaryPath != "" {
		if err := os.WriteFile(*summaryPath, []byte(summary), 0o644); err != nil {
			fmt.Fprintf(stderr, "alexsim: %v\n", err)
			return 2
		}
	}
	if !*quiet {
		fmt.Fprint(stdout, summary)
	}
	if n := len(report.Violations); n > 0 {
		fmt.Fprintf(stderr, "alexsim: %d invariant violation(s):\n", n)
		for _, v := range report.Violations {
			fmt.Fprintf(stderr, "  %s\n", v)
		}
		return 1
	}
	return 0
}
