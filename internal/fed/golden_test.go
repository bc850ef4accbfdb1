package fed

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"sort"
	"strings"
	"testing"

	"alex/internal/datagen"
	"alex/internal/endpoint"
	"alex/internal/linkset"
	"alex/internal/obs"
	"alex/internal/rdf"
	"alex/internal/sparql"
	"alex/internal/store"
)

// This file pins the federated processor's answers. answers.golden was
// recorded from fed's own map-row operators before they were deleted; the
// slot engine behind the solver seam must reproduce it byte for byte.
// Regenerate with `go test ./internal/fed -run TestAnswersGolden -update`
// only when an answer is meant to change, and say why in CHANGES.md.
//
// plans.golden pins the other half: the join order and the sources the
// optimizer chose for the same queries, recorded at the commit before the
// greedy ordering loop moved into internal/sparql, and read from the plan
// span each traced evaluation records.
//
// wire.golden pins what a served federation puts on the wire: the /sparql
// reply bytes of every goldenCases query, recorded while the handler still
// encoded federated replies from materialized Bindings.

var updateGolden = flag.Bool("update", false, "rewrite testdata/answers.golden, testdata/plans.golden and testdata/wire.golden")

const (
	goldenPath      = "testdata/answers.golden"
	plansGoldenPath = "testdata/plans.golden"
	wireGoldenPath  = "testdata/wire.golden"
)

// goldenCase is one recorded query: the fixture it runs against and its text.
type goldenCase struct {
	name  string
	fed   func(t *testing.T) *Federation
	query string
}

// opts is how a case is evaluated: a "/naive" case joins in written order.
func (c goldenCase) opts() sparql.EvalOptions {
	return sparql.EvalOptions{DisablePlan: strings.HasSuffix(c.name, "/naive")}
}

func motivating(t *testing.T) *Federation { f, _ := motivatingFederation(t); return f }

func motivatingNoLinks(t *testing.T) *Federation {
	f := motivating(t)
	f.SetLinks(linkset.New())
	return f
}

func remote(t *testing.T) *Federation { f, _ := remoteFederation(t); return f }

func remoteParallel(t *testing.T) *Federation {
	f := remote(t)
	f.SetParallelism(4)
	return f
}

// hierarchical is the motivating federation served over HTTP and queried
// through a second-level federation.
func hierarchical(t *testing.T) *Federation {
	srv := httptest.NewServer(endpoint.NewQueryHandler(CachedEndpointQueryFunc(motivating(t), nil), nil))
	t.Cleanup(srv.Close)
	outer := New(rdf.NewDict())
	outer.AddSource(RemoteSource(endpoint.NewClient("inner-fed", srv.URL+"/sparql", srv.Client())))
	return outer
}

const mvpJoin = `?player <` + dbo + `award> "NBA MVP 2013" . ?article <` + nyo + `about> ?player .`

// goldenCases lists the queries of fed_test.go, optimize_test.go and
// remote_test.go; sameAsCases adds the benchmark's four fed_sameas
// templates.
var goldenCases = []goldenCase{
	{"motivating/join", motivating, `SELECT ?article WHERE { ` + mvpJoin + ` }`},
	{"motivating/no-links", motivatingNoLinks, `SELECT ?article WHERE { ` + mvpJoin + ` }`},
	{"motivating/single-source", motivating, `SELECT ?p WHERE { ?p <` + dbo + `award> "NBA MVP 2013" }`},
	{"motivating/original-binding", motivating, `SELECT ?player ?article WHERE { ` + mvpJoin + ` }`},
	{"motivating/constant-rewrite", motivating, `SELECT ?article WHERE { ?article <` + nyo + `about> <` + dbp + `LeBron_James> . }`},
	{"motivating/reverse-link", motivating, `SELECT ?award WHERE { <` + nyt + `article1> <` + nyo + `about> ?who . ?who <` + dbo + `award> ?award . }`},
	{"motivating/distinct", motivating, `SELECT DISTINCT ?player WHERE { ` + mvpJoin + ` }`},
	{"motivating/order-limit", motivating, `SELECT ?article WHERE { ` + mvpJoin + ` } ORDER BY ?article LIMIT 1`},
	{"motivating/filter", motivating, `SELECT ?p ?a WHERE { ?p <` + dbo + `award> ?a . FILTER(CONTAINS(?a, "2014")) }`},
	{"motivating/optional", motivating, `SELECT ?p ?label WHERE { ?p <` + dbo + `award> ?a . OPTIONAL { ?p <` + rdf.RDFSLabel + `> ?label } }`},
	{"motivating/union", motivating, `SELECT ?x WHERE { { ?x <` + dbo + `award> "NBA MVP 2013" } UNION { ?x <` + dbo + `award> "NBA MVP 2014" } }`},
	{"skewed/planned", skewedFederation, `SELECT ?s ?v WHERE { ?s <http://x/common> ?v . ?s <http://x/rare> "needle" . }`},
	{"skewed/naive", skewedFederation, `SELECT ?s ?v WHERE { ?s <http://x/common> ?v . ?s <http://x/rare> "needle" . }`},
	{"motivating/ask-true", motivating, `ASK { ?p <` + dbo + `award> "NBA MVP 2013" . ?article <` + nyo + `about> ?p . }`},
	{"motivating/ask-false", motivating, `ASK { ?p <` + dbo + `award> "NBA MVP 1901" }`},
	{"motivating/values", motivating, `SELECT ?article WHERE { VALUES ?p { <` + dbp + `LeBron_James> } ?article <` + nyo + `about> ?p . }`},
	{"motivating/aggregate", motivating, `SELECT ?p (COUNT(?article) AS ?n) WHERE { ?p <` + dbo + `award> "NBA MVP 2013" . ?article <` + nyo + `about> ?p . } GROUP BY ?p`},
	{"motivating/aggregate-empty", motivating, `SELECT (COUNT(?x) AS ?n) WHERE { ?x <` + dbo + `award> "never awarded" . }`},
	{"motivating/not-exists", motivating, `SELECT ?p WHERE { ?p <` + dbo + `award> ?a . FILTER NOT EXISTS { ?article <` + nyo + `about> ?p } }`},
	{"motivating/exists", motivating, `SELECT ?p WHERE { ?p <` + dbo + `award> ?a . FILTER EXISTS { ?article <` + nyo + `about> ?p } }`},
	{"motivating/construct", motivating, `CONSTRUCT { ?p <http://out/coveredBy> ?article } WHERE { ?p <` + dbo + `award> "NBA MVP 2013" . ?article <` + nyo + `about> ?p . }`},
	{"remote/join", remote, `SELECT ?article WHERE { ` + mvpJoin + ` } ORDER BY ?article`},
	{"remote/aggregate", remote, `SELECT (COUNT(?article) AS ?n) WHERE { ` + mvpJoin + ` }`},
	{"remote/parallel-join", remoteParallel, `SELECT ?article WHERE { ` + mvpJoin + ` } ORDER BY ?article`},
	{"remote/ask-any", remote, `ASK { ?s ?p ?o }`},
	{"hierarchical/join", hierarchical, `SELECT ?article WHERE { ` + mvpJoin + ` } ORDER BY ?article`},
}

// sameAsFederation is the benchmark's fed_sameas stack in small: the
// generated DBpedia–NYTimes pair federated through truth ∪ decoy links
// under the policy sparqld installs.
func sameAsFederation(t *testing.T) (*Federation, *datagen.Pair) {
	t.Helper()
	pair := datagen.GeneratePair(datagen.DBpediaNYTimes(0.25, 1))
	links := pair.Truth.Links()
	s1, s2 := pair.DS1.Subjects(), pair.DS2.Subjects()
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < pair.Truth.Len()/2; i++ {
		links = append(links, linkset.Link{Left: s1[rng.Intn(len(s1))], Right: s2[rng.Intn(len(s2))]})
	}
	f := New(pair.Dict, pair.DS1, pair.DS2)
	f.SetLinks(linkset.FromLinks(links))
	f.SetResilience(DefaultResilience())
	return f, pair
}

// sameAsCases instantiates the xjoin / const / ask / agg templates of
// bench/w_fed.go for the first few linked persons of the pair.
func sameAsCases(t *testing.T) []goldenCase {
	t.Helper()
	const (
		sdbo     = "http://dbpedia.sim/ontology/"
		snyt     = "http://nytimes.sim/ontology/"
		dboTeam  = "<" + sdbo + "team>"
		label    = "<" + rdf.RDFSLabel + ">"
		nytLabel = "<" + snyt + "prefLabel>"
		nytPos   = "<" + snyt + "position>"
	)
	f, pair := sameAsFederation(t)
	shared := func(*testing.T) *Federation { return f }
	object := func(s rdf.TermID, pred string) string {
		p, ok := pair.Dict.Lookup(rdf.NewIRI(pred))
		if !ok {
			return ""
		}
		for _, tr := range pair.DS1.Match(s, p, rdf.NoTerm) {
			return pair.Dict.Term(tr.O).String()
		}
		return ""
	}
	var out []goldenCase
	for _, l := range pair.Truth.Links() {
		team := object(l.Left, sdbo+"team")
		if team == "" || object(l.Left, rdf.RDFSLabel) == "" || object(l.Left, sdbo+"position") == "" {
			continue
		}
		s := pair.Dict.Term(l.Left).String()
		k := len(out) / 4
		out = append(out,
			goldenCase{fmt.Sprintf("sameas/%d/xjoin", k), shared, fmt.Sprintf("SELECT ?s ?l ?pl WHERE { ?s %s %s . ?s %s ?l . ?s %s ?pl }", dboTeam, team, label, nytLabel)},
			goldenCase{fmt.Sprintf("sameas/%d/const", k), shared, fmt.Sprintf("SELECT ?p ?o WHERE { %s ?p ?o }", s)},
			goldenCase{fmt.Sprintf("sameas/%d/ask", k), shared, fmt.Sprintf("ASK { %s %s ?x }", s, nytLabel)},
			goldenCase{fmt.Sprintf("sameas/%d/agg", k), shared, fmt.Sprintf("SELECT ?pos (COUNT(?s) AS ?n) WHERE { ?s %s %s . ?s %s ?pos } GROUP BY ?pos", dboTeam, team, nytPos)},
		)
		if len(out) == 4*4 {
			break
		}
	}
	if len(out) == 0 {
		t.Fatal("generated pair has no linked person with label, team and position")
	}
	return out
}

// renderResult writes a result in the golden file's line format: terms in
// N-Triples syntax, bindings by variable name, links as IRI pairs.
func renderResult(b *strings.Builder, f *Federation, res *Result) {
	fmt.Fprintf(b, "vars: %s\n", strings.Join(res.Vars, " "))
	for _, a := range res.Answers {
		vars := make([]string, 0, len(a.Binding))
		for v := range a.Binding {
			vars = append(vars, v)
		}
		sort.Strings(vars)
		b.WriteString("answer:")
		for _, v := range vars {
			fmt.Fprintf(b, " ?%s=%s", v, a.Binding[v])
		}
		b.WriteString(" | used:")
		for _, l := range a.Used {
			fmt.Fprintf(b, " (%s ~ %s)", f.Dict().Term(l.Left), f.Dict().Term(l.Right))
		}
		b.WriteByte('\n')
	}
	for _, tr := range res.Triples {
		fmt.Fprintf(b, "triple: %s\n", tr)
	}
}

// allGoldenCases is goldenCases followed by the sameAs templates.
func allGoldenCases(t *testing.T) []goldenCase {
	return append(append([]goldenCase{}, goldenCases...), sameAsCases(t)...)
}

// checkGolden compares got with the golden file at path, or rewrites the
// file under -update.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s (rerun with -update only for an intended change):\n%s", path, firstDiff(got, string(want)))
	}
}

func TestAnswersGolden(t *testing.T) {
	var b strings.Builder
	for _, c := range allGoldenCases(t) {
		f := c.fed(t)
		q, err := sparql.Parse(c.query)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		res, err := f.Eval(context.Background(), sparql.Compile(q), c.opts())
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		fmt.Fprintf(&b, "== %s\nquery: %s\n", c.name, c.query)
		renderResult(&b, f, res)
	}
	checkGolden(t, goldenPath, b.String())
}

// TestPlansGolden pins, per golden case, the evaluation order and the
// sources chosen for the query's first basic graph pattern, as its traced
// evaluation records them; a written-order case has no plan to pin.
func TestPlansGolden(t *testing.T) {
	var b strings.Builder
	for _, c := range allGoldenCases(t) {
		if c.opts().DisablePlan {
			continue
		}
		fmt.Fprintf(&b, "== %s\nquery: %s\n", c.name, c.query)
		for _, line := range tracedPlan(t, c.fed(t), c.query) {
			fmt.Fprintf(&b, "plan: %s\n", line)
		}
	}
	checkGolden(t, plansGoldenPath, b.String())
}

// tracedPlan evaluates query on f under a trace and returns the plan the
// federation recorded on the first top-level bgp span: one line per
// planned pattern, in planned order, naming its sources and, for a single
// source, marked [exclusive]. A query with no top-level BGP has none.
func tracedPlan(t *testing.T, f *Federation, query string) []string {
	t.Helper()
	q, err := sparql.Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace("query")
	if _, err := f.Eval(obs.WithTrace(context.Background(), tr), sparql.Compile(q), sparql.EvalOptions{}); err != nil {
		t.Fatalf("%s: %v", query, err)
	}
	var lines []string
	for _, stage := range tr.Root().Children() {
		if stage.Name() != "bgp" {
			continue
		}
		for _, step := range stage.Find("plan").Children() {
			tp, _ := step.Str("tp")
			sources, _ := step.Str("sources")
			line := tp + " @ {" + sources + "}"
			if _, ok := step.Int("exclusive"); ok {
				line += " [exclusive]"
			}
			lines = append(lines, line)
		}
		break
	}
	return lines
}

// TestWireGolden serves every golden case through the handler a sparqld
// federation runs behind and pins the reply bytes: SELECT and ASK as
// results JSON, CONSTRUCT as N-Triples. One more case groups by a variable
// it does not project: the reply carries it in every row, beside the head's
// vars.
func TestWireGolden(t *testing.T) {
	var b strings.Builder
	carried := goldenCase{"motivating/aggregate-carried", motivating,
		`SELECT (COUNT(?article) AS ?n) WHERE { ` + mvpJoin + ` } GROUP BY ?player`}
	for _, c := range append(append([]goldenCase{}, goldenCases...), carried) {
		h := endpoint.NewQueryHandler(CachedEndpointQueryFunc(c.fed(t), nil), nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/sparql?query="+url.QueryEscape(c.query), nil))
		fmt.Fprintf(&b, "== %s %d\nquery: %s\n", c.name, rec.Code, c.query)
		b.Write(rec.Body.Bytes())
	}
	checkGolden(t, wireGoldenPath, b.String())
}

// firstDiff names the first line where got and want part.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d\n got: %s\nwant: %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("lengths differ: got %d lines, want %d", len(g), len(w))
}

// TestSyntaxErrorsCiteTheQueryAsSent sends malformed queries, spelled with
// extra whitespace, lower-case keywords, comments and escapes, to every
// handler a store or federation is served behind. The 400 bodies must be
// byte-identical: an error cites the offset and spelling of the text the
// client sent, never of the normalised cache key.
func TestSyntaxErrorsCiteTheQueryAsSent(t *testing.T) {
	dict := rdf.NewDict()
	st := store.New("people", dict)
	st.Add(rdf.Triple{S: rdf.NewIRI("http://x/alice"), P: rdf.NewIRI("http://x/name"), O: rdf.NewString("Alice")})
	handlers := []struct {
		name string
		h    http.Handler
	}{
		{"NewHandler", endpoint.NewHandler(st)},
		{"NewCachedHandler(nil)", endpoint.NewCachedHandler(st, nil)},
		{"NewCachedHandler(default)", endpoint.NewCachedHandler(st, endpoint.NewQueryCache(endpoint.DefaultCacheConfig(), st.Generation))},
		{"CachedEndpointQueryFunc(nil)", endpoint.NewQueryHandler(CachedEndpointQueryFunc(New(dict, st), nil), nil)},
	}
	queries := []string{
		"select  ?x\n  wher { ?x ?p ?o }",
		"select ?x where { ?x   <http://x/name> 'A\\u006cice' ; }  limit  -1",
		"SELECT ?x # comment\n WHERE { ?x ?p ?o } ORDER BY desc ( 'x' )",
		"select ?x where { ?x ?p ?o filter ( ?o = 'a' & ?x ) }",
		"ask { ?x ?p \"unterminated }",
		"select   $x where { $x ?p ?o } group by $x",
	}
	for _, query := range queries {
		var first string
		for _, c := range handlers {
			for range 2 { // the second request may meet a cached entry
				rec := httptest.NewRecorder()
				c.h.ServeHTTP(rec, httptest.NewRequest("GET", "/sparql?query="+url.QueryEscape(query), nil))
				if rec.Code != http.StatusBadRequest {
					t.Fatalf("%s: %q answered %d, want 400", c.name, query, rec.Code)
				}
				if first == "" {
					first = rec.Body.String()
					if query == queries[0] && !strings.Contains(first, `offset 13: expected WHERE, got "wher"`) {
						t.Errorf("NewHandler answered %q with %s", query, first)
					}
				} else if got := rec.Body.String(); got != first {
					t.Errorf("%s: %q answered\n%s\nwant (NewHandler)\n%s", c.name, query, got, first)
				}
			}
		}
	}
}
