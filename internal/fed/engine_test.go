package fed

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"alex/internal/endpoint"
	"alex/internal/faultinject"
	"alex/internal/linkset"
	"alex/internal/obs"
	"alex/internal/rdf"
	"alex/internal/sparql"
	"alex/internal/store"
)

// The tests in this file hold the federation to the one-evaluator contract:
// it is the slot engine with a different solver, so it must agree with the
// single-store engine wherever both apply, behave the same under every
// resilience / observer / parallelism / source-kind configuration, and carry
// link provenance through every operator deterministically.

const (
	sparqlTestdata = "../sparql/testdata"
	mvp            = `"MVP"`
)

// readLines returns the non-comment lines of a testdata file.
func readLines(t *testing.T, path string) []string {
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

// fuzzSeeds returns the string inputs of internal/sparql's checked-in fuzz
// seed corpora (one `string("…")` line per file).
func fuzzSeeds(t *testing.T) []string {
	t.Helper()
	var out []string
	for _, dir := range []string{"FuzzParse", "FuzzTokenize"} {
		files, err := filepath.Glob(filepath.Join(sparqlTestdata, "fuzz", dir, "*"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no seed corpus %s (err %v)", dir, err)
		}
		for _, file := range files {
			for _, line := range readLines(t, file) {
				if !strings.HasPrefix(line, "string(") {
					continue
				}
				q, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(line, "string("), ")"))
				if err != nil {
					t.Fatalf("seed %s: %v", file, err)
				}
				out = append(out, q)
			}
		}
	}
	return out
}

func hasPath(ps []sparql.Pattern) bool {
	for _, p := range ps {
		switch p := p.(type) {
		case sparql.PathPattern:
			return true
		case sparql.Optional:
			if hasPath(p.Patterns) {
				return true
			}
		case sparql.Union:
			if hasPath(p.Left) || hasPath(p.Right) {
				return true
			}
		case sparql.Exists:
			if hasPath(p.Patterns) {
				return true
			}
		}
	}
	return false
}

// canon renders a row multiset order-independently.
func canon(rows []sparql.Binding) []string {
	out := make([]string, len(rows))
	for i, b := range rows {
		out[i] = renderBinding(b)
	}
	sort.Strings(out)
	return out
}

func renderBinding(b sparql.Binding) string {
	vars := make([]string, 0, len(b))
	for v := range b {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	var sb strings.Builder
	for _, v := range vars {
		fmt.Fprintf(&sb, "?%s=%s ", v, b[v])
	}
	return sb.String()
}

// TestSingleStoreIsOneSourceFederation: over the equivalence corpus and the
// fuzz seeds, a federation of one store and no links answers exactly what
// the slot engine answers on that store — in the same row order when both
// planners are off (so both join in written order), as the same multiset
// (and the same sequence under ORDER BY) when each plans from its own
// statistics — and no answer claims a link. Property paths are the one
// exception: fed rejects them.
func TestSingleStoreIsOneSourceFederation(t *testing.T) {
	st := store.New("people", rdf.NewDict())
	nt, err := os.Open(filepath.Join(sparqlTestdata, "people.nt"))
	if err != nil {
		t.Fatal(err)
	}
	defer nt.Close()
	if _, err := store.LoadNTriples(st, nt, store.LoadOptions{}); err != nil {
		t.Fatal(err)
	}
	planned, written := New(st.Dict(), st), New(st.Dict(), st)
	written.DisableReorder()

	corpus := readLines(t, filepath.Join(sparqlTestdata, "equiv_corpus.rq"))
	if len(corpus) < 60 {
		t.Fatalf("corpus has %d queries, want >= 60", len(corpus))
	}
	ctx := context.Background()
	checked := 0
	for _, query := range append(corpus, fuzzSeeds(t)...) {
		q, err := sparql.Parse(query)
		if err != nil {
			continue
		}
		if hasPath(q.Patterns) {
			if _, err := planned.EvalContext(ctx, sparql.Compile(q), nil); err == nil || !strings.Contains(err.Error(), "property paths are not supported") {
				t.Errorf("%q: err = %v, want the property-path rejection", query, err)
			}
			continue
		}
		checked++
		for _, c := range []struct {
			f     *Federation
			opts  sparql.EvalOptions
			exact bool
		}{{planned, sparql.EvalOptions{}, len(q.OrderBy) > 0}, {written, sparql.EvalOptions{DisablePlan: true}, true}} {
			prep := sparql.Compile(q)
			slots, wantErr := prep.Eval(ctx, sparql.StoreSolver(st), c.opts)
			got, gotErr := c.f.EvalContext(ctx, prep, nil)
			if wantErr != nil || gotErr != nil {
				t.Fatalf("%q: store err %v, fed err %v", query, wantErr, gotErr)
			}
			want := slots.Materialize()
			if !reflect.DeepEqual(got.Vars, want.Vars) || !reflect.DeepEqual(got.Triples, want.Triples) {
				t.Errorf("%q: fed vars %v triples %v, store vars %v triples %v", query, got.Vars, got.Triples, want.Vars, want.Triples)
			}
			rows := make([]sparql.Binding, len(got.Answers))
			for i, a := range got.Answers {
				rows[i] = a.Binding
				if len(a.Used) != 0 {
					t.Errorf("%q: answer %d used %v with no links set", query, i, a.Used)
				}
			}
			if len(rows) != len(want.Rows) {
				t.Fatalf("%q: fed %d rows, store %d", query, len(rows), len(want.Rows))
			}
			if c.exact {
				for i := range rows {
					if !reflect.DeepEqual(rows[i], want.Rows[i]) {
						t.Errorf("%q: row %d: fed %v, store %v", query, i, rows[i], want.Rows[i])
					}
				}
			} else if !reflect.DeepEqual(canon(rows), canon(want.Rows)) {
				t.Errorf("%q: fed rows %v, store rows %v", query, canon(rows), canon(want.Rows))
			}
		}
	}
	if checked < 50 {
		t.Fatalf("only %d queries compared", checked)
	}
}

// fedConfig is one way to assemble the two-link federation.
type fedConfig struct {
	kind     string // "local", "faultinject" (zero-config wrappers) or "remote" (NYTimes behind HTTP)
	res      bool   // DefaultResilience installed
	observer bool
	workers  int
}

func (c fedConfig) String() string {
	return fmt.Sprintf("%s/res=%v/obs=%v/workers=%d", c.kind, c.res, c.observer, c.workers)
}

// twoLinkFederation: DBpedia knows two MVPs, the Times has an article about
// each (two about LeBron), and one sameAs link bridges each player. Every
// cross-source answer therefore has a known link set.
func twoLinkFederation(t *testing.T, cfg fedConfig) (*Federation, [2]linkset.Link) {
	t.Helper()
	dict := rdf.NewDict()
	dbpedia := store.New("dbpedia", dict)
	timesDict := dict
	if cfg.kind == "remote" {
		timesDict = rdf.NewDict()
	}
	times := store.New("nytimes", timesDict)
	award, about := rdf.NewIRI(dbo+"award"), rdf.NewIRI(nyo+"about")
	players := [2][2]rdf.Term{
		{rdf.NewIRI(dbp + "LeBron_James"), rdf.NewIRI(nyt + "lebron_james_per")},
		{rdf.NewIRI(dbp + "Kevin_Durant"), rdf.NewIRI(nyt + "kevin_durant_per")},
	}
	// Links first, so their ids do not depend on which dictionary the
	// Times triples are interned into.
	var links [2]linkset.Link
	ls := linkset.New()
	for i, p := range players {
		links[i] = linkset.Link{Left: dict.Intern(p[0]), Right: dict.Intern(p[1])}
		ls.Add(links[i])
	}
	for i, p := range players {
		dbpedia.Add(rdf.Triple{S: p[0], P: award, O: rdf.NewString("MVP")})
		dbpedia.Add(rdf.Triple{S: p[0], P: rdf.NewIRI(rdf.RDFSLabel), O: rdf.NewString(p[0].Value[len(dbp):])})
		times.Add(rdf.Triple{S: rdf.NewIRI(nyt + "article" + itoa(i+1)), P: about, O: p[1]})
	}
	times.Add(rdf.Triple{S: rdf.NewIRI(nyt + "article3"), P: about, O: players[0][1]})
	dbpedia.Add(rdf.Triple{S: rdf.NewIRI(dbp + "Tim_Duncan"), P: award, O: rdf.NewString("Finals MVP")})

	var f *Federation
	switch cfg.kind {
	case "local":
		f = New(dict, dbpedia, times)
	case "faultinject":
		f = New(dict)
		f.AddSource(faultinject.Wrap(LocalSource(dbpedia), faultinject.Config{}))
		f.AddSource(faultinject.Wrap(LocalSource(times), faultinject.Config{}))
	case "remote":
		srv := httptest.NewServer(endpoint.NewHandler(times))
		t.Cleanup(srv.Close)
		f = New(dict, dbpedia)
		f.AddSource(RemoteSource(endpoint.NewClient("nytimes", srv.URL+"/sparql", srv.Client())))
	default:
		t.Fatalf("unknown kind %q", cfg.kind)
	}
	f.SetLinks(ls)
	if cfg.res {
		f.SetResilience(DefaultResilience())
	}
	if cfg.observer {
		f.SetObserver(obs.NewRegistry())
	}
	f.SetParallelism(cfg.workers)
	return f, links
}

const (
	awardP = `<` + dbo + `award>`
	aboutP = `<` + nyo + `about>`
	labelP = `<` + rdf.RDFSLabel + `>`
)

// provenanceCases pin what each operator does to Used. 0 and 1 index the
// fixture's links; rows are in answer order.
var provenanceCases = []struct {
	name, query string
	used        [][]int
}{
	{"bound join uses the link", `SELECT ?a WHERE { ?p ` + awardP + ` ` + mvp + ` . ?a ` + aboutP + ` ?p } ORDER BY ?a`,
		[][]int{{0}, {1}, {0}}},
	{"OPTIONAL extends Used", `SELECT ?p ?a WHERE { ?p ` + awardP + ` ?w . OPTIONAL { ?a ` + aboutP + ` ?p } } ORDER BY ?p ?a`,
		[][]int{{1}, {0}, {0}, {}}},
	{"UNION keeps per-branch Used", `SELECT ?x WHERE { { ?x ` + aboutP + ` <` + dbp + `Kevin_Durant> } UNION { ?x ` + awardP + ` "Finals MVP" } }`,
		[][]int{{1}, {}}},
	{"EXISTS drops the probe's links", `SELECT ?p WHERE { ?p ` + awardP + ` ` + mvp + ` . FILTER EXISTS { ?a ` + aboutP + ` ?p } }`,
		[][]int{{}, {}}},
	{"aggregate merges its group's links", `SELECT ?w (COUNT(?a) AS ?n) WHERE { ?p ` + awardP + ` ?w . ?a ` + aboutP + ` ?p } GROUP BY ?w`,
		[][]int{{0, 1}}},
	{"DISTINCT keeps the first row's", `SELECT DISTINCT ?w WHERE { ?p ` + awardP + ` ?w . ?a ` + aboutP + ` ?p }`,
		[][]int{{0}}},
	{"BIND and VALUES leave Used alone", `SELECT ?a ?l WHERE { VALUES ?p { <` + dbp + `LeBron_James> } ?a ` + aboutP + ` ?p . ?p ` + labelP + ` ?n . BIND(STR(?p) AS ?l) } ORDER BY ?a`,
		[][]int{{0}, {0}}},
	{"ASK keeps the witness row's links", `ASK { ?p ` + awardP + ` ` + mvp + ` . ?a ` + aboutP + ` ?p . ?q ` + awardP + ` ` + mvp + ` . ?b ` + aboutP + ` ?q . FILTER(?p != ?q) }`,
		[][]int{{0, 1}}},
	{"CONSTRUCT carries none", `CONSTRUCT { ?p <http://out/coveredBy> ?a } WHERE { ?p ` + awardP + ` ` + mvp + ` . ?a ` + aboutP + ` ?p }`,
		nil},
}

func TestProvenanceThroughOperators(t *testing.T) {
	f, links := twoLinkFederation(t, fedConfig{kind: "local", workers: 1})
	for _, c := range provenanceCases {
		res, err := f.ExecuteContext(context.Background(), c.query)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(res.Answers) != len(c.used) {
			t.Fatalf("%s: %d answers, want %d: %v", c.name, len(res.Answers), len(c.used), res.Answers)
		}
		for i, a := range res.Answers {
			want := make([]linkset.Link, len(c.used[i]))
			for j, k := range c.used[i] {
				want[j] = links[k]
			}
			if len(a.Used) != len(want) || (len(want) > 0 && !reflect.DeepEqual(a.Used, want)) {
				t.Errorf("%s: answer %d (%s) used %v, want %v", c.name, i, renderBinding(a.Binding), a.Used, want)
			}
		}
	}
}

// TestOnePathUnderEveryConfiguration: there is no fast path to diverge
// from, so resilience, an observer, bound-join parallelism and the kind of
// source must not change a single answer, link or row position.
func TestOnePathUnderEveryConfiguration(t *testing.T) {
	var want []*Result
	var wantCfg fedConfig
	for _, kind := range []string{"local", "faultinject", "remote"} {
		for _, res := range []bool{false, true} {
			for _, observer := range []bool{false, true} {
				for _, workers := range []int{1, 4} {
					cfg := fedConfig{kind, res, observer, workers}
					f, _ := twoLinkFederation(t, cfg)
					var got []*Result
					for _, c := range provenanceCases {
						r, err := f.ExecuteContext(context.Background(), c.query)
						if err != nil {
							t.Fatalf("%v: %s: %v", cfg, c.name, err)
						}
						got = append(got, r)
					}
					if want == nil {
						want, wantCfg = got, cfg
						continue
					}
					for i := range got {
						if !reflect.DeepEqual(got[i], want[i]) {
							t.Errorf("%v differs from %v on %q:\n got %+v\nwant %+v", cfg, wantCfg, provenanceCases[i].name, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestAskProvenanceIsDeterministic: the witness row's two links come back
// in (Left, Right) order every time — they are read off an interned sorted
// set, not iterated out of a map.
func TestAskProvenanceIsDeterministic(t *testing.T) {
	f, links := twoLinkFederation(t, fedConfig{kind: "local", workers: 1})
	ask := provenanceCases[7].query
	for i := 0; i < 50; i++ {
		res, err := f.ExecuteContext(context.Background(), ask)
		if err != nil {
			t.Fatal(err)
		}
		if !res.AskResult() || !reflect.DeepEqual(res.Answers[0].Used, links[:]) {
			t.Fatalf("run %d: ASK used %v, want %v", i, res.Answers, links)
		}
	}
}

// TestSetLinksDuringQueries hammers SetLinks while queries run (sparqld
// -feedback republishes links with /sparql readers in flight). Run under
// -race. Every answer must be consistent with one published link set: the
// bound join has exactly as many answers as that set's links have articles.
func TestSetLinksDuringQueries(t *testing.T) {
	f, links := twoLinkFederation(t, fedConfig{kind: "local", res: true, workers: 1})
	one, both := linkset.New(), linkset.New()
	one.Add(links[1])
	both.Add(links[0])
	both.Add(links[1])
	articles := map[linkset.Link]int{links[0]: 2, links[1]: 1}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; ctx.Err() == nil; i++ {
			if i%2 == 0 {
				f.SetLinks(one)
			} else {
				f.SetLinks(both)
			}
		}
	}()
	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 200; i++ {
				res, err := f.ExecuteContext(context.Background(), provenanceCases[0].query)
				if err != nil {
					t.Error(err)
					return
				}
				seen := map[linkset.Link]int{}
				for _, a := range res.Answers {
					if len(a.Used) != 1 {
						t.Errorf("answer used %v, want one link", a.Used)
						return
					}
					seen[a.Used[0]]++
				}
				for l, n := range seen {
					if n != articles[l] {
						t.Errorf("link %v produced %d answers, want %d: a query saw two link sets", l, n, articles[l])
						return
					}
				}
				if seen[links[1]] == 0 {
					t.Errorf("answers %v miss the link every published set has", res.Answers)
					return
				}
			}
		}()
	}
	readers.Wait()
	cancel()
	writer.Wait()
}

// The three tests below pin behaviour fed's own operators had drifted away
// from; each asserts what the single-store engine does with the same query.

func driftStore(t *testing.T) (*Federation, *store.Store) {
	t.Helper()
	st := store.New("scores", rdf.NewDict())
	for i, n := range []int64{10, 9, 100} {
		st.Add(rdf.Triple{S: rdf.NewIRI("http://x/s" + itoa(i)), P: rdf.NewIRI("http://x/score"), O: rdf.NewInt(n)})
	}
	return New(st.Dict(), st), st
}

func assertSameAsStore(t *testing.T, f *Federation, st *store.Store, query string) *Result {
	t.Helper()
	want, err := sparql.Execute(st, query)
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.ExecuteContext(context.Background(), query)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Answers) != len(want.Rows) {
		t.Fatalf("%q: fed %d answers, store %d rows", query, len(got.Answers), len(want.Rows))
	}
	for i, a := range got.Answers {
		if !reflect.DeepEqual(a.Binding, want.Rows[i]) {
			t.Errorf("%q: row %d: fed %v, store %v", query, i, a.Binding, want.Rows[i])
		}
	}
	if !reflect.DeepEqual(got.Triples, want.Triples) {
		t.Errorf("%q: fed triples %v, store %v", query, got.Triples, want.Triples)
	}
	return got
}

func TestOrderByIsNumericAware(t *testing.T) {
	f, st := driftStore(t)
	res := assertSameAsStore(t, f, st, `SELECT ?n WHERE { ?s <http://x/score> ?n } ORDER BY ?n`)
	if got := res.Answers[0].Binding["n"].Value; got != "9" {
		t.Errorf("smallest score = %s, want 9 (string order would say 10)", got)
	}
}

func TestOrderByNonProjectedVariable(t *testing.T) {
	f, st := driftStore(t)
	res := assertSameAsStore(t, f, st, `SELECT ?s WHERE { ?s <http://x/score> ?n } ORDER BY DESC(?n)`)
	if got := res.Answers[0].Binding["s"].Value; got != "http://x/s2" {
		t.Errorf("top scorer = %s, want http://x/s2 (ORDER BY must see ?n although it is not projected)", got)
	}
}

func TestConstructHonoursLimitOffset(t *testing.T) {
	f, st := driftStore(t)
	res := assertSameAsStore(t, f, st, `CONSTRUCT { ?s <http://out/scored> ?n } WHERE { ?s <http://x/score> ?n } OFFSET 1 LIMIT 1`)
	if len(res.Triples) != 1 || res.Triples[0].O.Value != "9" {
		t.Errorf("triples = %v, want only the second solution's", res.Triples)
	}
}
