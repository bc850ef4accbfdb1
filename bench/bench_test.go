package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"testing"
)

// tiny sizes keep the whole file under a few seconds: tier-1 runs it.
var tiny = map[string]sizes{
	"sparql_cold":   {rounds: 2, segments: 3, opsPerRound: 150, scale: 0.5, pool: 64, replayOps: 100},
	"fed_sameas":    {rounds: 2, segments: 2, opsPerRound: 100, scale: 0.5, pool: 64, replayOps: 100},
	"serve_repeat":  {rounds: 2, segments: 3, opsPerRound: 300, scale: 1, pool: servePool, replayOps: 100},
	"feedback_loop": {rounds: 2, segments: 2, opsPerRound: 40, scale: 0.2},
	"link_batch":    {rounds: 2, segments: 2, opsPerRound: 2, scale: 0.05},
}

func tinyEnv(t *testing.T, name string, seed int64, traced bool) (*env, workload) {
	t.Helper()
	sp, ok := findSpec(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	// The miniature runs check counts and relations within one run, not
	// times across runs, so their host always reads as the reference host.
	e := &env{seed: seed, sz: tiny[name], clients: sp.clients, tmp: t.TempDir(),
		yard: func() (yardSample, error) { return yardSample{yardReferenceMS, yardReferenceMS}, nil }}
	if traced {
		e.tr = newTracer()
	}
	return e, sp.new()
}

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct{ p, want float64 }{
		{0, 15}, {50, 35}, {100, 50},
		{25, 20},     // rank 1.0
		{40, 29},     // rank 1.6: 20 + 0.6·15
		{95, 48},     // rank 3.8: 40 + 0.8·10
		{12.5, 17.5}, // rank 0.5
	} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty percentile = %v, want 0", got)
	}
	if in := []float64{3, 1, 2}; median(in) != 2 || in[0] != 3 {
		t.Errorf("median reordered its input: %v", in)
	}
}

// The quartile rule must be Python's statistics.quantiles(xs, n=4): that is
// what the driver computes the spread with.
func TestQuartilesMatchPython(t *testing.T) {
	// >>> statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) → [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// >>> statistics.quantiles([2, 4, 4, 5, 9], n=4) → [3.0, 4.0, 7.0]
	q1, q3 = quartiles([]float64{2, 4, 4, 5, 9})
	if q1 != 3 || q3 != 7 {
		t.Errorf("quartiles = %v, %v; want 3, 7", q1, q3)
	}
	if got := spread([]float64{2, 4, 4, 5, 9}); got != 1 {
		t.Errorf("spread = %v, want (7-3)/4", got)
	}
}

// One speed per interval: the reference time over the median of the four
// samples around it (fewer at a round's ends).
func TestHostSpeeds(t *testing.T) {
	ref := yardReferenceMS
	got := hostSpeeds([]float64{ref, 2 * ref, 2 * ref, 4 * ref, ref})
	// windows: [r 2r 2r], [r 2r 2r 4r], [2r 2r 4r r], [2r 4r r]
	want := []float64{0.5, 0.5, 0.5, 0.5}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("speed %d = %v, want %v (all: %v)", i, got[i], want[i], got)
		}
	}
	if got := hostSpeeds([]float64{ref, ref / 2}); len(got) != 1 || got[0] != 1/0.75 {
		t.Errorf("two samples give %v, want one speed of 1/0.75", got)
	}
	if y := yardstickSample(); y.wallMS <= 0 || y.cpuMS <= 0 {
		t.Errorf("a yardstick sample took %+v", y)
	}
}

// Every time is scaled by its own interval's host speed before it is
// reduced: the rate and CPU cost to the median segment, latencies to
// percentiles over all timed ops, set-up to the median round. Traced
// rounds are kept apart.
func TestTimingsScaleToTheReferenceHost(t *testing.T) {
	res := &result{}
	for _, hostSlowdown := range []float64{1, 2, 4} {
		// The CPU clock sees half the slowdown the wall clock sees.
		rs := roundStats{setupS: 3 * hostSlowdown, speeds: []float64{1 / hostSlowdown}, cpuSpeeds: []float64{2 / hostSlowdown}}
		for _, cost := range []float64{1, 2, 6} { // the segments' own cost, in ms per op
			ms := cost * hostSlowdown
			rs.segments = append(rs.segments, segment{
				wallS: 4 * ms / 1e3, cpuS: 4 * ms / 1e3, mallocs: 40, allocB: 4096,
				latMS: []float64{ms, ms, ms, ms},
			})
			rs.speeds, rs.cpuSpeeds = append(rs.speeds, 1/hostSlowdown), append(rs.cpuSpeeds, 2/hostSlowdown)
		}
		res.rounds = append(res.rounds, rs)
	}
	res.rounds = append(res.rounds, roundStats{traced: true, setupS: 100, speeds: []float64{1, 1}, cpuSpeeds: []float64{1, 1},
		segments: []segment{{wallS: 1, cpuS: 1, latMS: []float64{1000}}}})
	v := endToEndValues(res)
	for name, want := range map[string]float64{
		"setup_s": 3, "ops_per_s": 500, "cpu_ms_per_op": 4, "op_p50_ms": 2, "op_p95_ms": 6,
		"allocs_per_op": 10, "alloc_kb_per_op": 1, "host.speed": 0.5, "host.raw_ops_per_s": 250,
	} {
		if math.Abs(v[name]-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, v[name], want)
		}
	}
	if got := timings(res, true)["ops_per_s"]; got != 1 {
		t.Errorf("traced rounds' ops_per_s = %v, want 1", got)
	}
}

func TestDigestResults(t *testing.T) {
	a := []byte(`{"head":{"vars":["s","l"]},"results":{"bindings":[{"l":{"type":"literal","value":"a } \" ] {"},"s":{"type":"uri","value":"x"}},{"l":{"type":"literal","value":"b"},"s":{"type":"uri","value":"y"}}]}}`)
	b := []byte(`{"head":{"vars":["s","l"]},"results":{"bindings":[{"l":{"type":"literal","value":"b"},"s":{"type":"uri","value":"y"}},{"l":{"type":"literal","value":"a } \" ] {"},"s":{"type":"uri","value":"x"}}]}}`)
	da, ok := digestResults(a)
	if !ok || da.rows != 2 {
		t.Fatalf("digest = %+v, %v; want 2 rows", da, ok)
	}
	if db, _ := digestResults(b); db != da {
		t.Errorf("row order changed the digest: %+v vs %+v", da, db)
	}
	c := bytes.Replace(a, []byte(`"value":"b"`), []byte(`"value":"c"`), 1)
	if dc, _ := digestResults(c); dc == da {
		t.Errorf("a changed value left the digest unchanged")
	}
	if d, ok := digestResults([]byte(`{"head":{},"boolean":true}`)); !ok || d.rows != 1 {
		t.Errorf("ASK true = %+v, %v", d, ok)
	}
	if d, ok := digestResults([]byte(`{"head":{},"boolean":false}`)); !ok || d.rows != 0 {
		t.Errorf("ASK false = %+v, %v", d, ok)
	}
	if _, ok := digestResults(a[:len(a)-40]); ok {
		t.Errorf("a truncated document digested")
	}
	if _, ok := digestResults([]byte("server overloaded, retry later")); ok {
		t.Errorf("an error body digested")
	}
}

// Equal seeds give byte-identical schedules, different seeds different ones.
func TestScheduleDeterminism(t *testing.T) {
	for _, sp := range specs {
		build := func(seed int64) []byte {
			e, w := tinyEnv(t, sp.name, seed, false)
			if err := w.prepare(e); err != nil {
				t.Fatalf("%s: prepare: %v", sp.name, err)
			}
			return w.schedule()
		}
		a, b, c := build(1), build(1), build(2)
		if len(a) == 0 {
			t.Errorf("%s: empty schedule", sp.name)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two schedules from seed 1 differ", sp.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 1 and 2 give the same schedule", sp.name)
		}
	}
}

// A miniature end-to-end run of every workload: no op may fail, and every
// end-to-end metric must come out non-zero (the contract requires it).
func TestMiniatureRuns(t *testing.T) {
	for _, sp := range specs {
		e, w := tinyEnv(t, sp.name, 1, false)
		res, err := runWorkload(w, e)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		if res.failed != 0 || !e.quality.valid() {
			t.Errorf("%s: %d of %d ops failed, dropped-converged shares %v", sp.name, res.failed, res.attempted, e.quality.droppedConvergedShares)
		}
		vals := endToEndValues(res)
		for _, d := range endToEnd {
			if v := vals[d.Name]; v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v", sp.name, d.Name, v)
			}
		}
	}
}

// tracedValues runs a miniature traced run and returns its layer metrics.
func tracedValues(t *testing.T, name string) (map[string]float64, *env) {
	t.Helper()
	e, w := tinyEnv(t, name, 1, true)
	res, err := runWorkload(w, e)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if res.failed != 0 {
		t.Fatalf("%s: %d of %d ops failed", name, res.failed, res.attempted)
	}
	return layerValues(e, res), e
}

// retry re-measures a timing relation a few times: the relation is between
// medians taken back to back, but tier-1 runs beside other packages' tests.
func retry(t *testing.T, attempts int, check func() (ok bool, detail string)) {
	t.Helper()
	detail := ""
	for i := 0; i < attempts; i++ {
		var ok bool
		if ok, detail = check(); ok {
			return
		}
	}
	t.Error(detail)
}

// The replayed stages must account for the handler: per op, the stages on
// the handler's path plus encoding sum to within 10 % of the handler.
func TestStageSums(t *testing.T) {
	for name, stages := range map[string][]string{
		"sparql_cold": {"sparql.prepare_us", "sparql.eval_us", "endpoint.encode_us"},
		"fed_sameas":  {"fed.execute_us", "endpoint.encode_us"},
	} {
		retry(t, 3, func() (bool, string) {
			v, _ := tracedValues(t, name)
			total := 0.0
			for _, s := range stages {
				if v[s] <= 0 {
					return false, name + ": stage " + s + " was never sampled"
				}
				total += v[s]
			}
			h := v["endpoint.handler_us"]
			return math.Abs(total-h) <= 0.10*h, name + ": stages " + jsonOf(stages) + " sum to " + jsonOf(total) + " µs per op, the handler takes " + jsonOf(h)
		})
	}
}

func TestServeRepeatCache(t *testing.T) {
	retry(t, 3, func() (bool, string) {
		v, e := tracedValues(t, "serve_repeat")
		ratio := v["endpoint.cache.result_hit_ratio"]
		if ratio < 0.55 || ratio > 0.90 {
			return false, "result hit ratio " + jsonOf(ratio) + " outside 0.55–0.90"
		}
		if v["endpoint.admission.rejected"] != 0 || v["store.wal_fsyncs"] != 0 || v["endpoint.cache.invalidations"] == 0 {
			return false, "rejected, fsyncs, invalidations = " + jsonOf([]float64{v["endpoint.admission.rejected"], v["store.wal_fsyncs"], v["endpoint.cache.invalidations"]})
		}
		// More than half the reads hit, so the median read is a hit.
		req, hit := e.tr.p50("endpoint.request"), v["endpoint.cache.hit_us"]
		return hit > 0 && req <= 1.5*hit, "median read " + jsonOf(req) + " µs, median hit " + jsonOf(hit) + " µs"
	})
}

func TestFeedbackLoopWastesFewJudgements(t *testing.T) {
	v, _ := tracedValues(t, "feedback_loop")
	if got := v["core.dropped_converged_share"]; got > maxDroppedShare {
		t.Errorf("core.dropped_converged_share = %v, want at most %v", got, maxDroppedShare)
	}
	if v["core.stream.batches"] == 0 || v["feature.upsert_us"] <= 0 || v["fed.setlinks_us"] <= 0 || v["endpoint.feedback.unknown"] != 0 {
		t.Errorf("feedback path not exercised: %v", jsonOf(v))
	}
}

// BENCHMARK.json and metrics.go must name the same metrics and workloads.
func TestBenchmarkFileMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Paths     []string                     `json:"paths"`
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []struct {
			metricDef
			Bound float64
		} `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("paths = %v", bf.Paths)
	}
	if len(bf.Workloads) != len(specs) {
		t.Fatalf("%d workloads listed, %d defined", len(bf.Workloads), len(specs))
	}
	for i, w := range bf.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: %q listed, %q defined", i, w.Name, specs[i].name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("listed %d+%d metrics, defined %d+%d", len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range bf.EndToEnd {
		if m.metricDef != endToEnd[i] || m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %d: %+v listed, %+v defined", i, m, endToEnd[i])
		}
	}
	for i, m := range bf.PerLayer {
		if m != perLayer[i] {
			t.Errorf("per-layer %d: %+v listed, %+v defined", i, m, perLayer[i])
		}
	}
}

func jsonOf(v any) string {
	b, _ := json.Marshal(v)
	return string(b)
}
