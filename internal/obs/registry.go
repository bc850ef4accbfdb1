// Package obs is the observability substrate: a concurrency-safe metrics
// registry (atomic counters, gauges, mutex-guarded latency histograms with
// quantile snapshots) and a lightweight per-query trace recorder (span
// trees with stage labels, durations and cardinality annotations).
//
// Everything is nil-safe so instrumentation can stay in the hot paths at
// zero configuration cost: methods on a nil *Registry return nil
// instruments, and methods on nil instruments are no-ops costing a single
// branch. Components therefore pre-resolve their instruments once (via
// SetObserver-style hooks) and call them unconditionally.
//
// The package is stdlib-only. Snapshots are plain structs with JSON tags,
// served verbatim by the /metrics endpoint (internal/endpoint) and
// consumed programmatically by tests and benchmarks.
package obs

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; all methods are no-ops on a nil receiver.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. The zero value is ready to use;
// all methods are no-ops on a nil receiver.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by d (useful for in-flight counts).
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
}

// Value returns the current value (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram bucket layout: 64 power-of-two buckets indexed by bit length,
// so bucket i holds values in [2^(i-1), 2^i). That gives ~constant relative
// error (< one octave) over the full int64 range — plenty for latencies in
// nanoseconds and for cardinalities.
const histBuckets = 64

// Histogram is a histogram of int64 observations (latencies in
// nanoseconds, cardinalities, sizes) under one mutex. The zero value is
// ready to use; all methods are no-ops on a nil receiver.
type Histogram struct {
	mu      sync.Mutex
	count   int64
	sum     int64
	min     int64
	max     int64
	buckets [histBuckets]int64
}

// Observe records one value. Negative values are clamped to zero.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.mu.Lock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[bits.Len64(uint64(v))]++
	h.mu.Unlock()
}

// HistSnapshot is a merged, read-only view of a histogram.
type HistSnapshot struct {
	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	Min   int64   `json:"min"`
	Max   int64   `json:"max"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// Snapshot copies the counts and estimates the p50/p95/p99 quantiles by
// linear interpolation inside the power-of-two bucket containing each
// rank, clamped to the observed min/max.
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	h.mu.Lock()
	snap := HistSnapshot{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
	buckets := h.buckets
	h.mu.Unlock()
	if snap.Count == 0 {
		return snap
	}
	snap.Mean = float64(snap.Sum) / float64(snap.Count)
	snap.P50 = quantile(&buckets, snap.Count, 0.50, snap.Min, snap.Max)
	snap.P95 = quantile(&buckets, snap.Count, 0.95, snap.Min, snap.Max)
	snap.P99 = quantile(&buckets, snap.Count, 0.99, snap.Min, snap.Max)
	return snap
}

// quantile finds the bucket containing rank q*count and interpolates
// linearly within the bucket's [2^(i-1), 2^i) range.
func quantile(buckets *[histBuckets]int64, count int64, q float64, lo, hi int64) float64 {
	rank := q * float64(count)
	cum := 0.0
	for i, n := range buckets {
		if n == 0 {
			continue
		}
		if cum+float64(n) >= rank {
			bucketLo := 0.0
			if i > 0 {
				bucketLo = float64(int64(1) << (i - 1))
			}
			bucketHi := float64(int64(1) << i)
			frac := (rank - cum) / float64(n)
			v := bucketLo + frac*(bucketHi-bucketLo)
			// Clamp to the observed range: the top bucket extends past the
			// true max, and the bottom past the true min.
			if v < float64(lo) {
				v = float64(lo)
			}
			if v > float64(hi) {
				v = float64(hi)
			}
			return v
		}
		cum += float64(n)
	}
	return float64(hi)
}

// Registry names and owns instruments. Instruments are created on first
// request and live for the registry's lifetime, so callers should resolve
// them once at setup and hold the pointer. A nil *Registry is the disabled
// state: it hands out nil instruments whose methods are no-ops.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram

	traces   []*Trace
	traceCap int
}

// NewRegistry returns an empty enabled registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		traceCap: 16,
	}
}

// Counter returns the named counter, creating it on first use. Returns nil
// (a no-op counter) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// AddTrace retains a completed trace, keeping the most recent ones (the
// retention cap defaults to 16): the engine's episodes and the queries
// traced through /debug/trace, inspectable after the fact (cmd/alex
// -trace, and a GET /debug/trace with no query).
func (r *Registry) AddTrace(tr *Trace) {
	if r == nil || tr == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.traces = append(r.traces, tr)
	if over := len(r.traces) - r.traceCap; over > 0 {
		r.traces = append(r.traces[:0:0], r.traces[over:]...)
	}
}

// Traces returns the retained traces, oldest first.
func (r *Registry) Traces() []*Trace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Trace, len(r.traces))
	copy(out, r.traces)
	return out
}

// Snapshot is a point-in-time copy of every instrument, JSON-ready.
type Snapshot struct {
	Counters   map[string]int64        `json:"counters"`
	Gauges     map[string]int64        `json:"gauges"`
	Histograms map[string]HistSnapshot `json:"histograms"`
}

// Snapshot captures every instrument. Safe to call concurrently with
// recording; counters and each histogram are read atomically but
// the snapshot as a whole is not one consistent cut.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistSnapshot{},
	}
	if r == nil {
		return snap
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()
	for k, c := range counters {
		snap.Counters[k] = c.Value()
	}
	for k, g := range gauges {
		snap.Gauges[k] = g.Value()
	}
	for k, h := range hists {
		snap.Histograms[k] = h.Snapshot()
	}
	return snap
}

// Names returns the sorted instrument names of a snapshot section, for
// deterministic reporting.
func (s Snapshot) Names() []string {
	names := make([]string, 0, len(s.Counters)+len(s.Gauges)+len(s.Histograms))
	for k := range s.Counters {
		names = append(names, k)
	}
	for k := range s.Gauges {
		names = append(names, k)
	}
	for k := range s.Histograms {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
