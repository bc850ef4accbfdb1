// Command bench is the repository's end-to-end benchmark: five workloads,
// each assembling in one process exactly the stack cmd/sparqld or
// cmd/alexlink assembles from internal/*, driven from outside by closed-loop
// callers over a schedule pre-generated from a seed. See README.md.
//
//	go run ./bench run   -workload all|<name> [-seed 1] [-seconds 10] [-trace 0|1]
//	go run ./bench trace -workload <name>      (= run -trace 1)
//	go run ./bench aa    -sets 2 -runs 5       (A/A noise calibration)
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// spec is one permanent workload: its name, why it exists, how many
// closed-loop callers drive it and how -seconds translates into a fixed
// amount of work. The op rates are this commit's on the 2-core reference
// container, so a run's timed phases last about -seconds there today; a
// faster commit does the same ops in less time.
type spec struct {
	name    string
	why     string
	clients int // callers; capped at GOMAXPROCS
	sizes   func(seconds int) sizes
	new     func() workload
}

// segmentOps sizes a segment from a per-second op rate: the ops that take
// seconds/(rounds·segments) at that rate, at least one.
func segmentOps(perSecond float64, seconds, rounds, segments int) int {
	return max(1, int(perSecond*float64(seconds))/(rounds*segments))
}

var specs = []spec{
	{
		name:    "sparql_cold",
		why:     "single store, no cache or admission: sparql + store + result encoding do nearly all the work, fed and core none",
		clients: 2,
		sizes: func(s int) sizes {
			return sizes{rounds: 5, segments: 20, opsPerRound: 20 * segmentOps(1500, s, 5, 20), scale: 4, pool: 1024, replayOps: 200}
		},
		new: func() workload { return &sparqlCold{} },
	},
	{
		name:    "fed_sameas",
		why:     "two stores federated through sameAs links, no cache: fed's own operators, bound joins and link rewriting dominate",
		clients: 2,
		sizes: func(s int) sizes {
			return sizes{rounds: 5, segments: 20, opsPerRound: 20 * segmentOps(1000, s, 5, 20), scale: 4, pool: 1024, replayOps: 200}
		},
		new: func() workload { return &fedSameAs{} },
	},
	{
		name:    "serve_repeat",
		why:     "Zipf-repeated reads over a durable store with a writer: cache, admission and HTTP do the work, the evaluator only on misses",
		clients: 2,
		sizes: func(s int) sizes {
			return sizes{rounds: 5, segments: 20, opsPerRound: 20 * segmentOps(1000, s, 5, 20), scale: 1, pool: servePool, replayOps: 100}
		},
		new: func() workload { return &serveRepeat{} },
	},
	{
		name:    "feedback_loop",
		why:     "the paper's loop over HTTP: add a subject, judge 16 links, re-read; crosses feedback, stream, feature delta, episode, SetLinks",
		clients: 1,
		// A partition freezes at its first episode that changes nothing,
		// about 100 cycles in at this scale, and discards feedback from
		// then on. So a round is 100 cycles on a fresh engine and -seconds
		// buys rounds, not longer rounds.
		sizes: func(s int) sizes {
			return sizes{rounds: max(2, s), segments: 5, opsPerRound: 100, scale: 0.5}
		},
		new: func() workload { return &feedbackLoop{} },
	},
	{
		name:    "link_batch",
		why:     "whole batch linking runs (PARIS, core.New, Engine.Run to convergence), no HTTP: feature.Build + sim dominate",
		clients: 1,
		sizes: func(s int) sizes {
			// Each batch run is its own segment, and a round's warm-up run
			// is its set-up sample: 8 rounds of 1 + 3 runs at -seconds 10.
			ops := segmentOps(2.4, s, 8, 1)
			return sizes{rounds: 8, segments: ops, opsPerRound: ops, scale: 0.2}
		},
		new: func() workload { return &linkBatch{} },
	},
}

func findSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = cmdRun(os.Args[2:], false)
	case "trace":
		err = cmdRun(os.Args[2:], true)
	case "aa":
		err = cmdAA(os.Args[2:])
	case "yardstick": // the yardstick process a run starts for itself
		err = serveYardstick()
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: go run ./bench run|trace|aa [flags]   (-h after a subcommand lists its flags)")
	os.Exit(2)
}

// options are the flags `run` and `trace` share; the contract's driver
// passes exactly -workload, -seed, -seconds and -trace.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

// traceDir is where the traced run writes trace_<workload>.json, relative
// to the checkout root the benchmark is run from.
var traceDir = filepath.Join("bench", "out")

func cmdRun(args []string, traceDefault bool) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	var o options
	traceFlag := 0
	if traceDefault {
		traceFlag = 1
	}
	fs.StringVar(&o.workload, "workload", "all", "workload name, or all")
	fs.Int64Var(&o.seed, "seed", 1, "schedule seed: equal seeds give byte-identical schedules")
	fs.IntVar(&o.seconds, "seconds", 10, "work to do, as the seconds the timed phases take at this commit on the reference container")
	fs.IntVar(&traceFlag, "trace", traceFlag, "1 = traced run: per-layer metrics and bench/out/trace_<workload>.json")
	_ = fs.Parse(args)
	o.trace = traceFlag != 0
	if o.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	if o.workload == "all" {
		return runAll(o)
	}
	sp, ok := findSpec(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	rep, err := runOne(sp, o)
	if err != nil {
		return err
	}
	fmt.Println(rep.line())
	return nil
}

// runOne runs one workload in this process and returns its report.
func runOne(sp spec, o options) (report, error) {
	runtime.GOMAXPROCS(runtime.NumCPU())
	tmp, err := os.MkdirTemp(scratchRoot(), "run-")
	if err != nil {
		return report{}, err
	}
	defer os.RemoveAll(tmp)
	yard, err := startYardstick()
	if err != nil {
		return report{}, err
	}
	defer yard.stop()
	e := &env{seed: o.seed, sz: sp.sizes(o.seconds), clients: min(sp.clients, runtime.GOMAXPROCS(0)), tmp: tmp, yard: yard.sample}
	if o.trace {
		e.tr = newTracer()
		e.sz.rounds += e.sz.rounds % 2 // an even count: untraced and traced rounds pair up
	}
	info := map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"seed": o.seed, "seconds": o.seconds, "clients": e.clients,
		"rounds": e.sz.rounds, "ops_per_round": e.sz.opsPerRound, "segments_per_round": e.sz.segments, "scale": e.sz.scale,
	}
	fmt.Fprintf(os.Stderr, "# %s: %s\n# %s\n", sp.name, sp.why, kv(info))

	res, err := runWorkload(sp.new(), e)
	if err != nil {
		return report{}, fmt.Errorf("%s: %w", sp.name, err)
	}
	correct := res.failed == 0 && e.quality.valid()
	if !o.trace {
		vals := endToEndValues(res)
		printHuman(endToEnd, vals, sampleCounts(res))
		fmt.Fprintf(os.Stderr, "# host.speed %.3f (1 = quiet reference host), unscaled ops_per_s %.4f\n", vals["host.speed"], vals["host.raw_ops_per_s"])
		e.quality.print(res)
		return newReport(endToEnd, vals, res.attempted, res.failed, correct), nil
	}
	vals := layerValues(e, res)
	printHuman(perLayer, vals, nil)
	path, err := e.tr.write(traceDir, sp.name, info, vals)
	if err != nil {
		return report{}, fmt.Errorf("writing trace: %w", err)
	}
	fmt.Fprintf(os.Stderr, "# trace written to %s (n of every stage inside)\n", path)
	return newReport(perLayer, vals, res.attempted, res.failed, correct), nil
}

// sampleCounts is how many samples stand behind each end-to-end metric of
// a run: rounds for set-up, segments for the rate and CPU medians, timed
// ops for the latency percentiles and allocation averages, one for the peak.
func sampleCounts(res *result) map[string]int {
	rounds, segments, ops := 0, 0, 0
	for _, r := range res.rounds {
		if r.traced {
			continue
		}
		rounds++
		segments += len(r.segments)
		for _, seg := range r.segments {
			ops += len(seg.latMS)
		}
	}
	return map[string]int{
		"setup_s": rounds, "ops_per_s": segments, "cpu_ms_per_op": segments,
		"op_p50_ms": ops, "op_p95_ms": ops, "allocs_per_op": ops, "alloc_kb_per_op": ops, "peak_rss_mb": 1,
	}
}

// scratchRoot is where temp data lives: inside the checkout when run from
// its root (the contract forbids writing elsewhere), else the system's.
func scratchRoot() string {
	dir := filepath.Join(".bench_build", "tmp")
	if _, err := os.Stat("BENCHMARK.json"); err == nil && os.MkdirAll(dir, 0o755) == nil {
		return dir
	}
	return ""
}

func kv(m map[string]any) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%v", k, m[k])
	}
	return strings.Join(parts, " ")
}

func printHuman(defs []metricDef, vals map[string]float64, n map[string]int) {
	for _, d := range defs {
		v := vals[d.Name]
		if v == 0 {
			continue
		}
		if count, ok := n[d.Name]; ok {
			fmt.Fprintf(os.Stderr, "%-36s %14.4f %-6s (%s is better; n=%d)\n", d.Name, v, d.Unit, d.Better, count)
		} else {
			fmt.Fprintf(os.Stderr, "%-36s %14.4f %-6s (%s is better)\n", d.Name, v, d.Unit, d.Better)
		}
	}
}

// runAll runs every workload, each in its own child process of this
// binary, and prints one result line per workload.
func runAll(o options) error {
	for _, sp := range specs {
		rep, err := runChild(sp.name, o)
		if err != nil {
			return err
		}
		line, err := json.Marshal(struct {
			Workload string `json:"workload"`
			report
		}{sp.name, rep})
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	return nil
}

// runChild runs one workload in a child process and decodes the last line
// of its standard output. The child's standard error passes through.
func runChild(workload string, o options) (report, error) {
	self, err := os.Executable()
	if err != nil {
		return report{}, err
	}
	traceFlag := "0"
	if o.trace {
		traceFlag = "1"
	}
	cmd := exec.Command(self, "run", "-workload", workload, "-seed", fmt.Sprint(o.seed),
		"-seconds", fmt.Sprint(o.seconds), "-trace", traceFlag)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return report{}, fmt.Errorf("%s: child run: %w", workload, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		return report{}, fmt.Errorf("%s: decoding child result: %w", workload, err)
	}
	return rep, nil
}
