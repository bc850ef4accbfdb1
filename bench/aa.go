package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json `aa` needs, read from the
// checkout root the benchmark is run from.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readBenchmarkFile() (benchmarkFile, error) {
	const path = "BENCHMARK.json"
	var bf benchmarkFile
	b, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	if err := json.Unmarshal(b, &bf); err != nil {
		return bf, fmt.Errorf("%s: %w", path, err)
	}
	return bf, nil
}

// worse is how much worse b is than a, as a share of a, given the
// metric's direction; negative when b is better.
func worse(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}

// cmdAA is the A/A calibration. It interleaves -sets sets of -runs runs
// of this same binary, exactly as the contract's driver takes its two
// sets: run i of every set uses seed i+1. Per workload and end-to-end
// metric it prints the first and last set's median and inter-quartile
// spread, how much worse the last median is, and — what the host alone
// does, seeds being equal — the median difference between the two sets'
// runs of one seed. It exits non-zero when a gap or a spread exceeds the
// metric's bound in BENCHMARK.json. The bounds are set from this table.
func cmdAA(args []string) error {
	fs := flag.NewFlagSet("aa", flag.ExitOnError)
	sets := fs.Int("sets", 2, "sets of runs to compare")
	runs := fs.Int("runs", 5, "runs per set, each with its own seed")
	only := fs.String("workload", "all", "workload name, or all")
	_ = fs.Parse(args)
	if *sets < 2 || *runs < 2 {
		return fmt.Errorf("aa needs at least 2 sets of at least 2 runs")
	}
	bf, err := readBenchmarkFile()
	if err != nil {
		return err
	}
	bounds := map[string]float64{}
	for _, m := range bf.EndToEnd {
		bounds[m.Name] = m.Bound
	}

	// values[workload][metric][set] = one value per run
	values := map[string]map[string][][]float64{}
	for run := 0; run < *runs; run++ {
		for set := 0; set < *sets; set++ {
			for _, sp := range specs {
				if *only != "all" && *only != sp.name {
					continue
				}
				o := options{seed: int64(run + 1), seconds: bf.RunSeconds}
				fmt.Fprintf(os.Stderr, "## aa: set %d run %d %s\n", set, run, sp.name)
				rep, err := runChild(sp.name, o)
				if err != nil {
					return err
				}
				if !rep.Correct {
					return fmt.Errorf("%s seed %d: incorrect run, %d of %d ops failed", sp.name, o.seed, rep.Failed, rep.Attempted)
				}
				if values[sp.name] == nil {
					values[sp.name] = map[string][][]float64{}
				}
				for name, m := range rep.Metrics {
					if values[sp.name][name] == nil {
						values[sp.name][name] = make([][]float64, *sets)
					}
					values[sp.name][name][set] = append(values[sp.name][name][set], m.Value)
				}
			}
		}
	}

	bad := 0
	fmt.Printf("| workload | metric | unit | median A | median B | IQR/median A | IQR/median B | same seed, A vs B | B worse by | bound | |\n")
	fmt.Printf("|---|---|---|---|---|---|---|---|---|---|---|\n")
	for _, sp := range specs {
		for _, m := range endToEnd {
			perSet := values[sp.name][m.Name]
			if perSet == nil {
				continue
			}
			a, b := perSet[0], perSet[len(perSet)-1]
			paired := make([]float64, len(a))
			for i := range a {
				paired[i] = math.Abs(worse(a[i], b[i], m.Better))
			}
			gap, limit, verdict := worse(median(a), median(b), m.Better), bounds[m.Name], "ok"
			if gap > limit || math.Max(spread(a), spread(b)) > limit {
				verdict = "OVER"
				bad++
			}
			fmt.Printf("| %s | %s | %s | %.5g | %.5g | %.2f%% | %.2f%% | %.2f%% | %+.2f%% | %.0f%% | %s |\n",
				sp.name, m.Name, m.Unit, median(a), median(b), 100*spread(a), 100*spread(b), 100*median(paired), 100*gap, 100*limit, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d workload × metric pairs exceed their bound in BENCHMARK.json", bad)
	}
	return nil
}
