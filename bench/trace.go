package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"alex/internal/obs"
)

// span is one timed call into a layer, recorded from the benchmark's own
// files around the layer's public functions. Self time of a span is its
// duration minus the part its children cover; children never overlap.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"` // 0 = root
	Op      int     `json:"op"`     // ops of one run share no ids across rounds: op = round*1e6 + index
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"` // since the tracer was created
	EndUS   float64 `json:"end_us"`
}

// maxSpans bounds the trace file; samples keep accumulating past it.
const maxSpans = 200_000

// tracer collects the traced run's spans, stage samples and obs counter
// deltas in memory; nothing is written until the run ends.
type tracer struct {
	mu       sync.Mutex
	t0       time.Time
	spans    []span
	samples  map[string][]float64 // stage or figure → one value per observation
	counters map[string]int64     // obs counter deltas summed over traced rounds
	ops      int                  // timed ops the counters cover
	// opSums, between beginOp and endOp, sums each stage's time over the
	// op's requests, so a stage's sample is its time per op — the unit
	// op_p50_ms is in, and one in which stage medians add up.
	opSums map[string]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), samples: map[string][]float64{}, counters: map[string]int64{}}
}

// sample records one observation of a named figure.
func (t *tracer) sample(name string, v float64) {
	t.mu.Lock()
	t.samples[name] = append(t.samples[name], v)
	t.mu.Unlock()
}

// stage times fn as a child span of parent and as a µs sample of name.
func (t *tracer) stage(parent, op int, name string, fn func()) {
	start := time.Now()
	fn()
	t.record(parent, op, name, start, time.Now())
}

// beginOp starts summing stage times per op; endOp records the sums.
func (t *tracer) beginOp() {
	t.mu.Lock()
	t.opSums = map[string]float64{}
	t.mu.Unlock()
}

func (t *tracer) endOp() {
	t.mu.Lock()
	for name, us := range t.opSums {
		t.samples[name] = append(t.samples[name], us)
	}
	t.opSums = nil
	t.mu.Unlock()
}

// record adds a finished span and its duration as a µs sample of name
// (into the op's sums between beginOp and endOp).
func (t *tracer) record(parent, op int, name string, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if us := float64(end.Sub(start).Nanoseconds()) / 1e3; t.opSums != nil {
		t.opSums[name] += us
	} else {
		t.samples[name] = append(t.samples[name], us)
	}
	if len(t.spans) >= maxSpans {
		return
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name,
		StartUS: float64(start.Sub(t.t0).Nanoseconds()) / 1e3,
		EndUS:   float64(end.Sub(t.t0).Nanoseconds()) / 1e3,
	})
}

// open starts a parent span whose end is not known yet; close ends it.
func (t *tracer) open(parent, op int, name string) int {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	if id > maxSpans {
		return 0
	}
	us := float64(now.Sub(t.t0).Nanoseconds()) / 1e3
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, StartUS: us, EndUS: us})
	return id
}

func (t *tracer) close(id int) {
	if id == 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[id-1].EndUS = float64(now.Sub(t.t0).Nanoseconds()) / 1e3
	t.mu.Unlock()
}

// addCounters folds one traced round's obs counter deltas in. Counters
// are read at the layer's own boundary (the registry the layer
// increments), so ratios are measured where the work happens.
func (t *tracer) addCounters(before, after obs.Snapshot, ops int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for name, v := range after.Counters {
		t.counters[name] += v - before.Counters[name]
	}
	t.ops += ops
}

// p50 is the median of a figure's samples (0 when never observed).
func (t *tracer) p50(name string) float64 { return median(t.samples[name]) }

// counter sums every obs counter whose name matches pattern, where a '*'
// stands for one dot-free segment (store.*.probe.subject).
func (t *tracer) counter(pattern string) float64 {
	want := strings.Split(pattern, ".")
	total := int64(0)
	for name, v := range t.counters {
		got := strings.Split(name, ".")
		if len(got) != len(want) {
			continue
		}
		match := true
		for i := range want {
			if want[i] != "*" && want[i] != got[i] {
				match = false
				break
			}
		}
		if match {
			total += v
		}
	}
	return float64(total)
}

// perOp is a counter divided by the traced timed ops.
func (t *tracer) perOp(pattern string) float64 {
	if t.ops == 0 {
		return 0
	}
	return t.counter(pattern) / float64(t.ops)
}

// ratio is a/(a+b) over two counters.
func (t *tracer) ratio(a, b string) float64 {
	x, y := t.counter(a), t.counter(b)
	if x+y == 0 {
		return 0
	}
	return x / (x + y)
}

// allocsPer runs fn once and returns the heap objects it allocated per
// call of the n calls fn makes. Only meaningful while nothing else runs.
func allocsPer(n int, fn func()) float64 {
	if n == 0 {
		return 0
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// traceFile is what bench/out/trace_<workload>.json holds.
type traceFile struct {
	Workload string             `json:"workload"`
	Env      map[string]any     `json:"env"`
	Metrics  map[string]float64 `json:"metrics"`  // the per-layer metrics, as printed
	Stages   map[string]stage   `json:"stages"`   // every sampled figure
	Counters map[string]int64   `json:"counters"` // obs counter deltas over the traced timed ops
	Ops      int                `json:"ops"`      // traced timed ops the counters cover
	Spans    []span             `json:"spans"`
}

type stage struct {
	N      int     `json:"n"`
	P50    float64 `json:"p50"`
	P95    float64 `json:"p95"`
	SelfUS float64 `json:"self_us_p50,omitempty"` // spans only: duration minus children
}

// write stores the trace under dir as trace_<workload>.json.
func (t *tracer) write(dir, workload string, env map[string]any, metrics map[string]float64) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	tf := traceFile{
		Workload: workload, Env: env, Metrics: metrics,
		Stages: map[string]stage{}, Counters: t.counters, Ops: t.ops, Spans: t.spans,
	}
	self := selfTimes(t.spans)
	for name, vs := range t.samples {
		tf.Stages[name] = stage{N: len(vs), P50: percentile(vs, 50), P95: percentile(vs, 95), SelfUS: median(self[name])}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace_"+workload+".json")
	b, err := json.Marshal(tf)
	if err != nil {
		return "", fmt.Errorf("encoding trace: %w", err)
	}
	return path, os.WriteFile(path, b, 0o644)
}

// selfTimes returns, per span name, each span's duration minus the time
// its direct children cover.
func selfTimes(spans []span) map[string][]float64 {
	child := make([]float64, len(spans)+1)
	for _, s := range spans {
		child[s.Parent] += s.EndUS - s.StartUS
	}
	out := map[string][]float64{}
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], s.EndUS-s.StartUS-child[s.ID])
	}
	return out
}
