package fed

import (
	"context"
	"strings"
	"testing"

	"alex/internal/obs"
	"alex/internal/sparql"
)

// motivatingQuery is the introduction example: articles about the 2013 NBA
// MVP, answerable only through the sameAs link.
const motivatingQuery = `SELECT ?article WHERE {
	?player <` + dbo + `award> "NBA MVP 2013" .
	?article <` + nyo + `about> ?player .
}`

// executeTrace parses and evaluates query with a fresh trace.
func executeTrace(f *Federation, query string) (*Result, *obs.Trace, error) {
	q, err := sparql.Parse(query)
	if err != nil {
		return nil, nil, err
	}
	tr := obs.NewTrace("query")
	res, err := f.EvalContext(context.Background(), sparql.Compile(q), tr)
	return res, tr, err
}

// TestObsFederatedQuery runs the motivating example with an observer
// attached and checks that the metrics and the span tree describe what the
// engine actually did: source-selection probes, bound-join batches, a
// sameAs rewrite, and per-pattern cardinalities.
func TestObsFederatedQuery(t *testing.T) {
	f, _ := motivatingFederation(t)
	reg := obs.NewRegistry()
	f.SetObserver(reg)

	res, tr, err := executeTrace(f, motivatingQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 2 {
		t.Fatalf("answers = %d, want 2", len(res.Answers))
	}

	snap := reg.Snapshot()
	if got := snap.Counters["fed.queries"]; got != 1 {
		t.Errorf("fed.queries = %d, want 1", got)
	}
	// Source selection probes every source per pattern: 2 patterns x 2
	// sources.
	if got := snap.Counters["fed.source_probes"]; got != 4 {
		t.Errorf("fed.source_probes = %d, want 4", got)
	}
	// The second pattern only matches through the sameAs link, so at least
	// one rewrite must have fired and produced rows.
	if snap.Counters["fed.sameas.rewrites"] == 0 {
		t.Error("fed.sameas.rewrites = 0, want > 0")
	}
	if snap.Counters["fed.sameas.rows"] == 0 {
		t.Error("fed.sameas.rows = 0, want > 0")
	}
	// One bound-join batch per planned pattern, and the final two answers
	// must be accounted for in the row counter.
	if snap.Counters["fed.boundjoin.batches"] < 2 {
		t.Errorf("fed.boundjoin.batches = %d, want >= 2", snap.Counters["fed.boundjoin.batches"])
	}
	if snap.Counters["fed.rows"] < 2 {
		t.Errorf("fed.rows = %d, want >= 2", snap.Counters["fed.rows"])
	}
	// Latency instruments must carry observations with sane quantiles.
	q := snap.Histograms["fed.query_ns"]
	if q.Count != 1 || q.P50 <= 0 || q.P99 < q.P50 {
		t.Errorf("fed.query_ns snapshot insane: %+v", q)
	}
	for _, src := range []string{"dbpedia", "nytimes"} {
		h := snap.Histograms["fed.source."+src+".match_ns"]
		if h.Count == 0 || h.P50 <= 0 {
			t.Errorf("fed.source.%s.match_ns has no observations: %+v", src, h)
		}
	}

	// The span tree: a bgp stage with one span per pattern, each naming its
	// sources and carrying join input/output cardinalities.
	bgp := tr.Find("bgp")
	if bgp == nil {
		t.Fatalf("no bgp span in trace:\n%s", tr.String())
	}
	patterns := bgp.FindAll("pattern")
	if len(patterns) != 2 {
		t.Fatalf("pattern spans = %d, want 2:\n%s", len(patterns), tr.String())
	}
	var rewrites int64
	for _, p := range patterns {
		in, ok := p.Int("in")
		if !ok || in < 1 {
			t.Errorf("pattern span missing sane 'in': %s", tr.String())
		}
		out, ok := p.Int("out")
		if !ok || out < 1 {
			t.Errorf("pattern span missing sane 'out': %s", tr.String())
		}
		if src, ok := p.Str("sources"); !ok || src == "" {
			t.Errorf("pattern span missing source names: %s", tr.String())
		}
		if n, ok := p.Int("rewrites"); ok {
			rewrites += n
		}
	}
	if rewrites == 0 {
		t.Errorf("no pattern span recorded sameAs rewrites:\n%s", tr.String())
	}
	// The second pattern joins the first's single row out to two articles.
	last := patterns[len(patterns)-1]
	if in, _ := last.Int("in"); in != 1 {
		t.Errorf("last pattern in = %d, want 1", in)
	}
	if out, _ := last.Int("out"); out != 2 {
		t.Errorf("last pattern out = %d, want 2", out)
	}
	fin := tr.Find("finalize")
	if fin == nil {
		t.Fatalf("no finalize span:\n%s", tr.String())
	}
	if out, _ := fin.Int("out"); out != 2 {
		t.Errorf("finalize out = %d, want 2", out)
	}
	if !strings.Contains(tr.String(), "sources=") {
		t.Errorf("rendered trace lacks source annotations:\n%s", tr.String())
	}
}

// TestObsParallelBoundJoin verifies the instruments stay consistent when
// the bound-join worker pool is active (run with -race to catch data races
// in the worker instrumentation).
func TestObsParallelBoundJoin(t *testing.T) {
	f, _ := motivatingFederation(t)
	reg := obs.NewRegistry()
	f.SetObserver(reg)
	f.SetParallelism(4)

	res, tr, err := executeTrace(f, motivatingQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 2 {
		t.Fatalf("answers = %d, want 2", len(res.Answers))
	}
	snap := reg.Snapshot()
	if snap.Counters["fed.sameas.rewrites"] == 0 {
		t.Error("parallel path lost the rewrite counter")
	}
	if got := snap.Gauges["fed.workers_busy"]; got != 0 {
		t.Errorf("fed.workers_busy = %d after query, want 0", got)
	}
	if fin := tr.Find("finalize"); fin == nil {
		t.Fatalf("no finalize span:\n%s", tr.String())
	}
}

// TestObsDisabled checks the untraced, unobserved path still works and
// records nothing.
func TestObsDisabled(t *testing.T) {
	f, _ := motivatingFederation(t)
	res, err := f.ExecuteContext(context.Background(), motivatingQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 2 {
		t.Fatalf("answers = %d, want 2", len(res.Answers))
	}
}
