package sparql

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"alex/internal/rdf"
	"alex/internal/store"
)

// This file is the equivalence harness: every query in the corpus (plus
// every parseable fuzz seed) runs through both the reference model
// (EvalCompat, reference_test.go) and the engine's one entry point, with
// and without the selectivity planner, and the results must be identical
// up to row order. The engine is what ships; the reference model is its
// executable specification.

// loadLines returns the non-comment lines of a testdata file.
func loadLines(t testing.TB, path string) []string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, line := range strings.Split(string(b), "\n") {
		if line = strings.TrimSpace(line); line != "" && !strings.HasPrefix(line, "#") {
			out = append(out, line)
		}
	}
	return out
}

// loadFuzzSeeds returns the string inputs of the checked-in go-fuzz seed
// corpora (format: "go test fuzz v1" header, then one quoted string line).
func loadFuzzSeeds(t *testing.T) []string {
	t.Helper()
	var out []string
	for _, dir := range []string{"FuzzParse", "FuzzTokenize"} {
		entries, err := os.ReadDir(filepath.Join("testdata", "fuzz", dir))
		if err != nil {
			t.Fatalf("reading seed corpus %s: %v", dir, err)
		}
		for _, e := range entries {
			b, err := os.ReadFile(filepath.Join("testdata", "fuzz", dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			for _, line := range strings.Split(string(b), "\n") {
				line = strings.TrimSpace(line)
				if !strings.HasPrefix(line, `string(`) {
					continue
				}
				q, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(line, "string("), ")"))
				if err != nil {
					t.Fatalf("seed %s/%s: %v", dir, e.Name(), err)
				}
				out = append(out, q)
			}
		}
	}
	if len(out) == 0 {
		t.Fatal("no fuzz seeds found")
	}
	return out
}

// canonRows renders a row multiset order-independently: one sorted
// var=term string per row, rows sorted.
func canonRows(rows []Binding) []string {
	out := make([]string, 0, len(rows))
	for _, b := range rows {
		vars := make([]string, 0, len(b))
		for v := range b {
			vars = append(vars, v)
		}
		sort.Strings(vars)
		var sb strings.Builder
		for _, v := range vars {
			sb.WriteString(v)
			sb.WriteByte('=')
			sb.WriteString(b[v].String())
			sb.WriteByte(';')
		}
		out = append(out, sb.String())
	}
	sort.Strings(out)
	return out
}

func canonTriples(ts []rdf.Triple) []string {
	out := make([]string, 0, len(ts))
	for _, t := range ts {
		out = append(out, t.String())
	}
	sort.Strings(out)
	return out
}

// checkEquivalence runs q through the reference model and one
// configuration of the engine and fails on any observable difference. A
// positive limit bounds each side by its own deadline; when either deadline
// fires there is nothing to compare and the check reports false.
func checkEquivalence(t *testing.T, st *store.Store, query string, q *Query, opts EvalOptions, label string, limit time.Duration) bool {
	t.Helper()
	bounded := func(eval func(ctx context.Context) (*Result, error)) (*Result, error) {
		ctx := context.Background()
		if limit > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, limit)
			defer cancel()
		}
		return eval(ctx)
	}
	want, wantErr := bounded(func(ctx context.Context) (*Result, error) { return EvalCompat(ctx, st, q) })
	got, gotErr := bounded(func(ctx context.Context) (*Result, error) { return evalStore(ctx, st, q, opts) })
	if errors.Is(wantErr, context.DeadlineExceeded) || errors.Is(gotErr, context.DeadlineExceeded) {
		return false
	}
	if (wantErr != nil) != (gotErr != nil) {
		t.Fatalf("%s: %q: legacy err=%v, slot err=%v", label, query, wantErr, gotErr)
	}
	if wantErr != nil {
		return true
	}
	if q.Ask {
		if want.AskResult() != got.AskResult() {
			t.Fatalf("%s: %q: legacy ask=%v, slot ask=%v", label, query, want.AskResult(), got.AskResult())
		}
		return true
	}
	if strings.Join(want.Vars, ",") != strings.Join(got.Vars, ",") {
		t.Fatalf("%s: %q: legacy vars=%v, slot vars=%v", label, query, want.Vars, got.Vars)
	}
	wantRows, gotRows := canonRows(want.Rows), canonRows(got.Rows)
	if len(wantRows) != len(gotRows) {
		t.Fatalf("%s: %q: legacy %d rows, slot %d rows\nlegacy: %v\nslot:   %v",
			label, query, len(wantRows), len(gotRows), wantRows, gotRows)
	}
	for i := range wantRows {
		if wantRows[i] != gotRows[i] {
			t.Fatalf("%s: %q: row %d differs\nlegacy: %s\nslot:   %s", label, query, i, wantRows[i], gotRows[i])
		}
	}
	// Row order must also agree when the query fixes it.
	if len(q.OrderBy) > 0 {
		for i := range want.Rows {
			wv, gv := canonRows(want.Rows[i:i+1]), canonRows(got.Rows[i:i+1])
			if wv[0] != gv[0] {
				t.Fatalf("%s: %q: ordered row %d differs\nlegacy: %s\nslot:   %s", label, query, i, wv[0], gv[0])
			}
		}
	}
	wantTs, gotTs := canonTriples(want.Triples), canonTriples(got.Triples)
	if strings.Join(wantTs, "\n") != strings.Join(gotTs, "\n") {
		t.Fatalf("%s: %q: constructed graphs differ\nlegacy: %v\nslot:   %v", label, query, wantTs, gotTs)
	}
	return true
}

// TestSlotEngineEquivalence is the harness entry point: the curated
// corpus plus every parseable fuzz seed, against the shared fixture
// store, with the planner on and off.
func TestSlotEngineEquivalence(t *testing.T) {
	st := peopleStore(t)
	corpus := loadLines(t, filepath.Join("testdata", "equiv_corpus.rq"))
	queries := append(corpus, loadFuzzSeeds(t)...)
	parsed := 0
	for _, query := range queries {
		q, err := Parse(query)
		if err != nil {
			continue // parse rejects before either engine runs
		}
		parsed++
		checkEquivalence(t, st, query, q, EvalOptions{}, "planned", 0)
		checkEquivalence(t, st, query, q, EvalOptions{DisablePlan: true}, "unplanned", 0)
	}
	if parsed < len(corpus) || len(corpus) < 60 {
		t.Fatalf("only %d/%d corpus queries parsed — corpus is stale", parsed, len(corpus))
	}
}

// TestEvalConcurrentSharedStore drives the slot engine from many
// goroutines over one store, for the race detector: per-query state
// (idSpace, rowSets, plans) must never leak across evaluations.
func TestEvalConcurrentSharedStore(t *testing.T) {
	st := peopleStore(t)
	queries := []string{
		`SELECT ?n WHERE { ?s ?p ?o . ?s <http://x/knows> ?k . ?k <http://x/name> ?n }`,
		`SELECT ?p (COUNT(?o) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?p ORDER BY ?n`,
		`SELECT ?x WHERE { <http://x/carol> <http://x/knows>+ ?x } ORDER BY ?x`,
		`SELECT ?s ?v WHERE { ?s <http://x/name> ?n . VALUES (?n ?v) { ("Alice" 1) (UNDEF 2) } }`,
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				q, err := Parse(queries[(g+i)%len(queries)])
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := evalStore(context.Background(), st, q, EvalOptions{}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
