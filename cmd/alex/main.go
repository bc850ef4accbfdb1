// Command alex runs the paper-reproduction experiments: every table and
// figure of "ALEX: Automatic Link Exploration in Linked Data" has an
// experiment id (see -list). Results print to stdout in the shape the paper
// reports (per-episode precision/recall/F-measure series, search-space
// counts, sensitivity sweeps).
//
// Usage:
//
//	alex -list
//	alex -exp fig2a
//	alex -exp all -scale 0.5 -seed 7
//	alex -exp fig2a -trace
//	alex -exp all -svg figures
//
// With -trace, engine metrics (feedback counts, explorations, rollbacks,
// ε-greedy pick split, episode latency quantiles) and the span trees of
// the most recent episodes are printed to stderr after the experiment.
// With -svg, the charts each experiment drew from its own runs are
// written into the directory; nothing is run a second time.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"alex/internal/experiment"
	"alex/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with injectable args and streams, so tests can drive the
// whole command in-process. It returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("alex", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp    = fs.String("exp", "", "experiment id to run (or 'all')")
		list   = fs.Bool("list", false, "list available experiments")
		scale  = fs.Float64("scale", 1, "data-set size multiplier")
		seed   = fs.Int64("seed", 42, "random seed")
		svgDir = fs.String("svg", "", "also write the figure(s) drawn from the experiment's runs as SVG into this directory")
		trace  = fs.Bool("trace", false, "print engine metrics and recent episode span trees to stderr")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list || *exp == "" {
		fmt.Fprintln(stdout, "experiments:")
		for _, e := range experiment.Experiments {
			fmt.Fprintf(stdout, "  %-8s %s\n", e.ID, e.Title)
		}
		fmt.Fprintln(stdout, "  all      run everything in paper order")
		if *exp == "" && !*list {
			fmt.Fprintln(stderr, "\nusage: alex -exp <id> [-scale N] [-seed N]")
			return 2
		}
		return 0
	}

	exps := experiment.Experiments
	if *exp != "all" {
		e, ok := experiment.ByID(*exp)
		if !ok {
			fmt.Fprintf(stderr, "alex: unknown experiment %q (try -list)\n", *exp)
			return 2
		}
		exps = []experiment.Experiment{e}
	}
	opt := experiment.Options{Scale: *scale, Seed: *seed}
	if *trace {
		opt.Obs = obs.NewRegistry()
		defer printObservations(opt.Obs, stderr)
	}
	for _, e := range exps {
		charts := e.Run(stdout, opt)
		if *exp == "all" {
			fmt.Fprintln(stdout)
		}
		if *svgDir == "" {
			continue
		}
		for name, c := range charts {
			path := filepath.Join(*svgDir, name)
			if err := os.WriteFile(path, []byte(c.SVG()), 0o644); err != nil {
				fmt.Fprintln(stderr, "alex:", err)
				return 1
			}
			fmt.Fprintf(stderr, "wrote %s\n", path)
		}
	}
	return 0
}

// printObservations dumps the metrics snapshot and the retained episode
// span trees after a traced run.
func printObservations(reg *obs.Registry, w io.Writer) {
	raw, err := json.MarshalIndent(reg.Snapshot(), "", "  ")
	if err == nil {
		fmt.Fprintf(w, "\nmetrics:\n%s\n", raw)
	}
	traces := reg.Traces()
	if len(traces) == 0 {
		return
	}
	fmt.Fprintf(w, "\nlast %d episode traces:\n", len(traces))
	for _, tr := range traces {
		fmt.Fprintln(w, tr.String())
	}
}
