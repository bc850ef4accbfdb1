package fed

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"alex/internal/endpoint"
	"alex/internal/obs"
	"alex/internal/rdf"
	"alex/internal/sparql"
	"alex/internal/store"
)

// freshRemote serves a one-triple store (<a> <p> <c>) over HTTP and returns
// it with a federation whose only member is that endpoint.
func freshRemote(t *testing.T) (*store.Store, *Federation) {
	t.Helper()
	remote := store.New("remote", rdf.NewDict())
	remote.Add(rdf.Triple{S: rdf.NewIRI("http://x/a"), P: rdf.NewIRI("http://x/p"), O: rdf.NewIRI("http://x/c")})
	srv := httptest.NewServer(endpoint.NewHandler(remote))
	t.Cleanup(srv.Close)
	f := New(rdf.NewDict())
	f.AddSource(RemoteSource(endpoint.NewClient("remote", srv.URL+"/sparql", srv.Client())))
	return remote, f
}

// TestRemoteZeroCountRefreshes: a predicate the endpoint was counted 0 of
// is selected again once the endpoint holds triples of it and one query
// has reached the endpoint since.
func TestRemoteZeroCountRefreshes(t *testing.T) {
	remote, f := freshRemote(t)
	objects := func(query string) []string {
		t.Helper()
		res, err := f.ExecuteContext(context.Background(), query)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, a := range res.Answers {
			out = append(out, a.Binding["o"].Value)
		}
		return out
	}
	sel := `SELECT ?o WHERE { ?s <http://x/q> ?o }`
	if got := objects(sel); len(got) != 0 {
		t.Fatalf("before the add: %v, want no rows", got)
	}
	remote.Add(rdf.Triple{S: rdf.NewIRI("http://x/a"), P: rdf.NewIRI("http://x/q"), O: rdf.NewIRI("http://x/d")})
	// Any query that reaches the endpoint; this one asks for a triple of p.
	objects(`ASK { <http://x/a> <http://x/p> <http://x/c> }`)
	if got := objects(sel); len(got) != 1 || got[0] != "http://x/d" {
		t.Errorf("after the add and one request: %v, want [http://x/d]", got)
	}
}

// TestRemoteCachedAnswerFollowsRemoteStore: a federation with a remote
// member, served through a result cache over DataGeneration, answers a
// repeated query afresh once the remote store has grown and one query has
// missed the cache and reached the endpoint.
func TestRemoteCachedAnswerFollowsRemoteStore(t *testing.T) {
	remote, f := freshRemote(t)
	cache := endpoint.NewQueryCache(endpoint.DefaultCacheConfig(), f.DataGeneration)
	h := endpoint.NewQueryHandler(CachedEndpointQueryFunc(f, cache), nil)
	reply := func(query string) string {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/sparql?query="+url.QueryEscape(query), nil))
		if rec.Code != 200 {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		return rec.Body.String()
	}
	sel := `SELECT ?o WHERE { <http://x/a> <http://x/p> ?o }`
	for range 2 {
		if got := strings.Count(reply(sel), `"o":{`); got != 1 {
			t.Fatalf("before the add: %d rows, want 1", got)
		}
	}
	remote.Add(rdf.Triple{S: rdf.NewIRI("http://x/a"), P: rdf.NewIRI("http://x/p"), O: rdf.NewIRI("http://x/d")})
	reply(`ASK { <http://x/a> <http://x/p> <http://x/d> }`)
	if got := strings.Count(reply(sel), `"o":{`); got != 2 {
		t.Errorf("after the add and one missed query: %d rows, want 2", got)
	}
}

// TestRemoteFreshUnderConcurrentWrites: queries race a remote store's
// growth, through the federation directly and through a result cache over
// DataGeneration. Once the writes stop and one query has reached the
// endpoint, every answer equals the one a local federation over the same
// triples gives.
func TestRemoteFreshUnderConcurrentWrites(t *testing.T) {
	remote, f := freshRemote(t)
	local := store.New("local", rdf.NewDict())
	local.Add(rdf.Triple{S: rdf.NewIRI("http://x/a"), P: rdf.NewIRI("http://x/p"), O: rdf.NewIRI("http://x/c")})
	ref := endpoint.NewQueryHandler(CachedEndpointQueryFunc(New(local.Dict(), local), nil), nil)
	direct := endpoint.NewQueryHandler(CachedEndpointQueryFunc(f, nil), nil)
	cached := endpoint.NewQueryHandler(CachedEndpointQueryFunc(f,
		endpoint.NewQueryCache(endpoint.DefaultCacheConfig(), f.DataGeneration)), nil)
	reply := func(h http.Handler, query string) (string, error) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/sparql?query="+url.QueryEscape(query), nil))
		if rec.Code != 200 {
			return "", fmt.Errorf("%s: status %d: %s", query, rec.Code, rec.Body)
		}
		return rec.Body.String(), nil
	}
	queries := []string{
		`SELECT ?s ?o WHERE { ?s <http://x/p> ?o } ORDER BY ?s ?o`,
		// q0 and q1 are counted 0 until the writer adds them.
		`SELECT ?s ?o WHERE { ?s <http://x/q0> ?o } ORDER BY ?s ?o`,
		`SELECT ?o WHERE { <http://x/s8> <http://x/q1> ?o }`,
		`SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }`,
		`ASK { <http://x/s31> <http://x/q0> ?o }`,
	}

	const writes = 60
	var done atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			h := []http.Handler{direct, cached}[r%2]
			for i := 0; !done.Load() || i < len(queries); i++ {
				if _, err := reply(h, queries[(r+i)%len(queries)]); err != nil {
					errs <- err
					return
				}
			}
		}(r)
	}
	for i := 0; i < writes; i++ {
		tr := rdf.Triple{
			S: rdf.NewIRI(fmt.Sprintf("http://x/s%d", i)),
			P: rdf.NewIRI([]string{"http://x/p", "http://x/q0", "http://x/q1"}[i%3]),
			O: rdf.NewString(fmt.Sprint(i)),
		}
		remote.Add(tr)
		local.Add(tr)
		time.Sleep(100 * time.Microsecond)
	}
	done.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if _, err := reply(direct, `ASK { ?s ?p ?o }`); err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		want, err := reply(ref, q)
		if err != nil {
			t.Fatal(err)
		}
		for name, h := range map[string]http.Handler{"direct": direct, "cached": cached} {
			if got, err := reply(h, q); err != nil || got != want {
				t.Errorf("%s %s:\n got %s (%v)\nwant %s", name, q, got, err, want)
			}
		}
	}
}

// genCounter is a member that counts the reads of its generation and its
// matches.
type genCounter struct {
	Source
	reads, matches atomic.Int64
}

func (g *genCounter) Generation() uint64 {
	g.reads.Add(1)
	return g.Source.Generation()
}

func (g *genCounter) Match(ctx context.Context, ids *sparql.IDSpace, gen uint64, sub, pred, obj rdf.TermID, dst []rdf.TripleID) ([]rdf.TripleID, error) {
	g.matches.Add(1)
	return g.Source.Match(ctx, ids, gen, sub, pred, obj, dst)
}

// TestOneGenerationReadPerRequest: a served federated request reads each
// member's generation once to look up a result and once to pin the state
// it evaluates: a hit reads once and matches nothing, a miss reads twice,
// a request with no cache once. A write that lands between the lookup and
// the pin is in the rows and in the reply's generation alike, and the
// entry is then served at that generation.
func TestOneGenerationReadPerRequest(t *testing.T) {
	dict := rdf.NewDict()
	st := store.New("people", dict)
	p := rdf.NewIRI("http://x/p")
	st.Add(rdf.Triple{S: rdf.NewIRI("http://x/a"), P: p, O: rdf.NewIRI("http://x/c")})
	member := &genCounter{Source: LocalSource(st)}
	f := New(dict)
	f.AddSource(member)
	var inject *rdf.Triple // added by the next lookup, after it reads
	gen := func() uint64 {
		g := f.DataGeneration()
		if inject != nil {
			st.Add(*inject)
			inject = nil
		}
		return g
	}
	query := "/sparql?query=" + url.QueryEscape(`SELECT ?s WHERE { ?s ?p ?o }`)
	handler := func(cfg endpoint.CacheConfig) http.Handler {
		return endpoint.NewQueryHandler(CachedEndpointQueryFunc(f, endpoint.NewQueryCache(cfg, gen)), nil)
	}
	cached, written := handler(endpoint.DefaultCacheConfig()), handler(endpoint.DefaultCacheConfig())
	for _, c := range []struct {
		name           string
		h              http.Handler
		write          bool
		reads, matches int64
	}{
		{"miss", cached, false, 2, 1},
		{"hit", cached, false, 1, 0},
		{"no cache", handler(endpoint.CacheConfig{}), false, 1, 1},
		{"write after the lookup", written, true, 2, 1},
		{"hit after the write", written, false, 1, 0},
	} {
		if c.write {
			inject = &rdf.Triple{S: rdf.NewIRI("http://x/b"), P: p, O: rdf.NewIRI("http://x/c")}
		}
		member.reads.Store(0)
		member.matches.Store(0)
		rec := httptest.NewRecorder()
		c.h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, query, nil))
		if r, m := member.reads.Load(), member.matches.Load(); r != c.reads || m != c.matches {
			t.Errorf("%s: %d generation reads and %d matches, want %d and %d", c.name, r, m, c.reads, c.matches)
		}
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", c.name, rec.Code, rec.Body)
		}
		if got, want := rec.Header().Get("Data-Generation"), fmt.Sprint(f.DataGeneration()); got != want {
			t.Errorf("%s: generation %s, want %s", c.name, got, want)
		}
		if got := strings.Count(rec.Body.String(), `"s":{`); got != st.Len() {
			t.Errorf("%s: %d rows, want the store's %d", c.name, got, st.Len())
		}
	}
}

// writeAfterPin is a member whose next generation read, the one an
// evaluation pins, is followed by a write to its store.
type writeAfterPin struct {
	Source
	st    *store.Store
	write []rdf.Triple
}

func (w *writeAfterPin) Generation() uint64 {
	g := w.Source.Generation()
	w.st.Load(w.write)
	w.write = nil
	return g
}

// TestPinnedFederationPlansByItsCounts: a federated evaluation selects
// sources and orders patterns by the counts of the generation it pinned,
// so a write that lands after the pin changes neither its plan nor its
// rows: both equal those of a federation over a fresh store of the prefix.
func TestPinnedFederationPlansByItsCounts(t *testing.T) {
	triple := func(s, p, o string) rdf.Triple {
		return rdf.Triple{S: rdf.NewIRI("http://x/" + s), P: rdf.NewIRI("http://x/" + p), O: rdf.NewString(o)}
	}
	var prefix, later []rdf.Triple
	for i := 0; i < 5; i++ {
		prefix = append(prefix, triple(fmt.Sprint("e", i), "q", fmt.Sprint("q", i)))
	}
	for i := 0; i < 14; i++ {
		tr := triple(fmt.Sprint("e", i), "p", fmt.Sprint("p", i))
		if i < 2 {
			prefix = append(prefix, tr)
		} else {
			later = append(later, tr, triple(fmt.Sprint("e", i), "r", "late"))
		}
	}
	run := func(f *Federation, query string) string {
		t.Helper()
		q, err := sparql.Parse(query)
		if err != nil {
			t.Fatal(err)
		}
		tr := obs.NewTrace("query")
		res, err := f.Eval(obs.WithTrace(context.Background(), tr), sparql.Compile(q), sparql.EvalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, sp := range tr.Root().FindAll("plan") {
			for _, step := range sp.Children() {
				tp, _ := step.Str("tp")
				sources, _ := step.Str("sources")
				fmt.Fprintf(&b, "step: %s @ {%s}\n", tp, sources)
			}
		}
		renderResult(&b, f, res)
		return b.String()
	}
	for _, query := range []string{
		`SELECT ?x ?y ?z WHERE { ?x <http://x/q> ?z . ?x <http://x/p> ?y }`,
		`SELECT ?x ?y ?z WHERE { ?x <http://x/p> ?y . ?x <http://x/q> ?z }`,
		`SELECT ?x ?w WHERE { ?x <http://x/p> ?y . ?x <http://x/r> ?w }`,
	} {
		freshDict := rdf.NewDict()
		fresh := store.New("people", freshDict)
		fresh.Load(prefix)
		want := run(New(freshDict, fresh), query)

		dict := rdf.NewDict()
		grown := store.New("people", dict)
		grown.Load(prefix)
		f := New(dict)
		f.AddSource(&writeAfterPin{Source: LocalSource(grown), st: grown, write: later})
		if got := run(f, query); got != want {
			t.Errorf("%s\npinned evaluation:\n%s\nfresh federation of the prefix:\n%s", query, got, want)
		}
		if grown.Len() != len(prefix)+len(later) {
			t.Fatalf("the write after the pin did not land: %d triples", grown.Len())
		}
	}
}
