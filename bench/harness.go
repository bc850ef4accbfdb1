package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"alex/internal/obs"
)

// sizes fixes how much work a run does. A run is a fixed number of
// rounds; each round assembles the stack afresh and warms it up (together
// one set-up sample), and then times a fixed number of ops cut into equal
// segments with a yardstick sample between them, so two commits do
// identical work and only the time it takes differs.
type sizes struct {
	rounds      int     // stack assemblies per run
	opsPerRound int     // timed ops per round, a multiple of segments
	segments    int     // equal segments a round's timed ops are cut into
	scale       float64 // datagen.DBpediaNYTimes scale
	pool        int     // distinct seeded subjects requests draw from
	replayOps   int     // ops per traced round given a stage replay
}

// warm is the untimed warm-up that precedes each round's timed ops: 5 %.
func (s sizes) warm() int { return max(1, s.opsPerRound/20) }

// env is what a workload needs from the harness.
type env struct {
	seed    int64
	sz      sizes
	clients int     // closed-loop callers, never more than GOMAXPROCS
	tmp     string  // scratch directory inside the checkout, removed at exit
	tr      *tracer // nil unless this is the traced run
	// yard takes one yardstick sample (yardstick.go): from the yardstick
	// process in a run, a constant in the tests.
	yard    func() (yardSample, error)
	quality qualityLog
	// harnessS is the time the current round's set-up spent on the
	// harness's own work (see untimed); it is not part of setup_s.
	harnessS float64
}

// untimed runs work a set-up does for the harness, not for the system
// under test — generating data, laying down the files a recovery reads —
// and keeps its duration out of setup_s.
func (e *env) untimed(fn func() error) error {
	t0 := time.Now()
	err := fn()
	e.harnessS += time.Since(t0).Seconds()
	return err
}

// workload is one of the five permanent workloads: a stack assembled from
// internal/* exactly as a command of this repo assembles it, and a seeded
// schedule of same-shape ops to drive it with from outside.
type workload interface {
	// prepare does the harness's own once-per-process work: generating
	// data and the whole schedule from the seed. Not part of setup_s.
	prepare(e *env) error
	// setup assembles the system under test for one round: load or
	// recover, link, build engines, start the server. reg is nil except in
	// traced rounds.
	setup(round int, reg *obs.Registry) error
	// goldens precomputes, on the first assembled stack and before any
	// timing, what every reply must equal.
	goldens() error
	// do runs op i of the current round for one client and reports
	// whether every reply was correct. It must not panic on a bad reply.
	do(c *client, i int) bool
	// endpoint is the base URL clients connect to ("" when ops use no HTTP).
	endpoint() string
	// replay, in a traced round and after its timed ops, re-runs sampled
	// ops stage by stage around timers.
	replay(round int)
	// teardown ends a round: final quality figures, then release the stack.
	teardown(round int) error
	// schedule serialises the pre-generated schedule (bench_test.go).
	schedule() []byte
}

// segment is what one equal slice of a round's timed ops measured, as
// taken: wall and CPU seconds, and each op's latency in ms.
type segment struct {
	wallS, cpuS     float64
	mallocs, allocB float64
	latMS           []float64
}

// roundStats is what one round measured. speeds and cpuSpeeds hold the
// host's speed, by the wall clock and by the CPU clock, during set-up
// (index 0) and during each segment (index 1…).
type roundStats struct {
	setupS            float64 // assembly + warm-up, harness work excluded, as taken
	traced            bool
	segments          []segment
	speeds, cpuSpeeds []float64
}

// result is a finished run.
type result struct {
	rounds    []roundStats
	attempted int
	failed    int
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMiB reads the process's high-water resident set from
// /proc/self/status (VmHWM, kB).
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// drive runs ops [from, to) of the current round, one closed-loop caller
// per client. The callers share one cursor, so all finish within one op
// of each other and the phase has no single-caller tail. lat, when
// non-nil, receives each op's latency in ms at its index.
func drive(w workload, clients []*client, from, to int, lat []float64) (failed int) {
	var next, fails atomic.Int64
	next.Store(int64(from))
	var wg sync.WaitGroup
	for _, cl := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= to {
					return
				}
				t0 := time.Now()
				ok := w.do(cl, i)
				if lat != nil {
					lat[i-from] = float64(time.Since(t0).Nanoseconds()) / 1e6
				}
				if !ok {
					fails.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return int(fails.Load())
}

// timeSegment drives one segment around the process's clocks and
// allocation counters.
func timeSegment(w workload, clients []*client, from, to int) (segment, int) {
	seg := segment{latMS: make([]float64, to-from)}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0, t0 := cpuSeconds(), time.Now()
	failed := drive(w, clients, from, to, seg.latMS)
	seg.wallS, seg.cpuS = time.Since(t0).Seconds(), cpuSeconds()-cpu0
	runtime.ReadMemStats(&m1)
	seg.mallocs, seg.allocB = float64(m1.Mallocs-m0.Mallocs), float64(m1.TotalAlloc-m0.TotalAlloc)
	return seg, failed
}

// runWorkload runs every round of w. In the traced run (e.tr != nil)
// rounds alternate untraced and traced, so one process yields both sides
// of trace.overhead_pct.
func runWorkload(w workload, e *env) (*result, error) {
	if e.sz.opsPerRound%e.sz.segments != 0 {
		return nil, fmt.Errorf("%d ops per round do not divide into %d segments", e.sz.opsPerRound, e.sz.segments)
	}
	if err := w.prepare(e); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	res := &result{}
	warm, segOps := e.sz.warm(), e.sz.opsPerRound/e.sz.segments
	for r := 0; r < e.sz.rounds; r++ {
		rs := roundStats{traced: e.tr != nil && r%2 == 1}
		var reg *obs.Registry
		if rs.traced {
			reg = obs.NewRegistry()
		}
		runtime.GC()
		var yardWall, yardCPU []float64
		sampleYard := func() error {
			y, err := e.yard()
			yardWall, yardCPU = append(yardWall, y.wallMS), append(yardCPU, y.cpuMS)
			return err
		}
		// Two samples before set-up, so that it has as many around it as a
		// segment has.
		for i := 0; i < 2; i++ {
			if err := sampleYard(); err != nil {
				return nil, err
			}
		}
		e.harnessS = 0
		t0 := time.Now()
		if err := w.setup(r, reg); err != nil {
			return nil, fmt.Errorf("round %d set-up: %w", r, err)
		}
		rs.setupS = time.Since(t0).Seconds() - e.harnessS
		if r == 0 {
			if err := w.goldens(); err != nil {
				return nil, fmt.Errorf("goldens: %w", err)
			}
		}
		clients := make([]*client, e.clients)
		for i := range clients {
			clients[i] = newClient(w.endpoint())
		}
		// The warm-up is the rest of set-up: the time until the stack
		// serves at its steady state. Its failures count too: a stack that
		// answers wrongly while cold is still wrong.
		t0 = time.Now()
		res.failed += drive(w, clients, 0, warm, nil)
		rs.setupS += time.Since(t0).Seconds()
		res.attempted += warm

		var before obs.Snapshot
		if rs.traced {
			before = reg.Snapshot()
		}
		runtime.GC()
		for s := 0; s < e.sz.segments; s++ {
			if err := sampleYard(); err != nil {
				return nil, err
			}
			seg, failed := timeSegment(w, clients, warm+s*segOps, warm+(s+1)*segOps)
			rs.segments = append(rs.segments, seg)
			res.failed += failed
		}
		if err := sampleYard(); err != nil {
			return nil, err
		}
		// Interval 0 lies between the two samples before set-up.
		rs.speeds, rs.cpuSpeeds = hostSpeeds(yardWall)[1:], hostSpeeds(yardCPU)[1:]
		res.attempted += e.sz.opsPerRound
		res.rounds = append(res.rounds, rs)

		if rs.traced {
			e.tr.addCounters(before, reg.Snapshot(), e.sz.opsPerRound)
			for _, seg := range rs.segments {
				for _, ms := range seg.latMS {
					e.tr.sample("op.traced", ms*1e3)
				}
			}
			w.replay(r)
		}
		for _, cl := range clients {
			cl.close()
		}
		if err := w.teardown(r); err != nil {
			return nil, fmt.Errorf("round %d teardown: %w", r, err)
		}
	}
	return res, nil
}

// timings reduces the rounds of one kind (traced or not) to the timing
// metrics. Every time is first scaled by the host's speed while it was
// taken (yardstick.go), so it reads as on the quiet reference host. Then,
// as the issue specifies: the rate and the CPU cost are the median
// segment's, the latency percentiles are over all timed ops, and set-up
// time, with one sample per round, is the median round's. The raw_ and
// host figures say what the scaling did.
func timings(res *result, traced bool) map[string]float64 {
	var setup, rate, rawRate, cpu, lat, speeds []float64
	for _, r := range res.rounds {
		if r.traced != traced {
			continue
		}
		setup = append(setup, r.setupS*r.speeds[0])
		for s, seg := range r.segments {
			speed, ops := r.speeds[s+1], float64(len(seg.latMS))
			speeds = append(speeds, speed)
			rate = append(rate, ops/(seg.wallS*speed))
			rawRate = append(rawRate, ops/seg.wallS)
			cpu = append(cpu, seg.cpuS*r.cpuSpeeds[s+1]*1e3/ops)
			for _, ms := range seg.latMS {
				lat = append(lat, ms*speed)
			}
		}
	}
	return map[string]float64{
		"setup_s":            median(setup),
		"ops_per_s":          median(rate),
		"op_p50_ms":          percentile(lat, 50),
		"op_p95_ms":          percentile(lat, 95),
		"cpu_ms_per_op":      median(cpu),
		"host.speed":         median(speeds),
		"host.raw_ops_per_s": median(rawRate),
	}
}

// endToEndValues computes a run's end-to-end metrics from its untraced
// rounds. Allocation counts do not depend on the host and are plain
// totals over the timed segments.
func endToEndValues(res *result) map[string]float64 {
	v := timings(res, false)
	ops, mallocs, allocB := 0.0, 0.0, 0.0
	for _, r := range res.rounds {
		if r.traced {
			continue
		}
		for _, seg := range r.segments {
			ops += float64(len(seg.latMS))
			mallocs += seg.mallocs
			allocB += seg.allocB
		}
	}
	v["allocs_per_op"] = mallocs / ops
	v["alloc_kb_per_op"] = allocB / 1024 / ops
	v["peak_rss_mb"] = peakRSSMiB()
	return v
}
