package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"alex/internal/endpoint"
	"alex/internal/fed"
	"alex/internal/linkset"
	"alex/internal/rdf"
	"alex/internal/store"
)

// This file is the oracle for "a reply names the state it read": under
// concurrent Add and AddIDs, every /sparql reply equals the reply to the
// same query over fresh stores loaded with the log prefix its
// Data-Generation header names.

// stateQuery is a query and whether its row order counts. Unordered
// replies compare as bags: the planner orders patterns by counts of the
// live store, so row order may differ from the fresh store's.
type stateQuery struct {
	q       string
	ordered bool
}

// storeQueries read one store in several ways at once: the two UNION
// branches over one predicate must agree; a join; a count; a closure with
// both ends unbound; an ordered scan; an ASK.
var storeQueries = []stateQuery{
	{`SELECT ?a ?b WHERE { { ?a <http://x/p> ?o } UNION { ?b <http://x/p> ?o } }`, false},
	{`SELECT ?s ?n WHERE { ?s <http://x/p> ?o . ?o <http://x/name> ?n }`, false},
	{`SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }`, false},
	{`SELECT ?s ?o WHERE { ?s <http://x/p>+ ?o }`, false},
	{`SELECT ?s ?o WHERE { ?s <http://x/name> ?o } ORDER BY ?s ?o`, true},
	{`ASK { <http://x/e400> <http://x/p> ?o }`, false},
}

// servedReply is a /sparql reply read for comparison: its Data-Generation
// header and its solutions, each binding's bytes, sorted unless the query
// is ordered. An ASK reply is its one boolean.
type servedReply struct {
	gen  uint64
	rows []string
}

func serveQuery(h http.Handler, q stateQuery) (servedReply, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/sparql?query="+url.QueryEscape(q.q), nil))
	if rec.Code != http.StatusOK {
		return servedReply{}, fmt.Errorf("%s: status %d: %s", q.q, rec.Code, rec.Body)
	}
	gen, err := strconv.ParseUint(rec.Header().Get("Data-Generation"), 10, 64)
	if err != nil {
		return servedReply{}, fmt.Errorf("%s: Data-Generation: %v", q.q, err)
	}
	var doc struct {
		Boolean *bool
		Results struct{ Bindings []json.RawMessage }
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		return servedReply{}, fmt.Errorf("%s: %v", q.q, err)
	}
	out := servedReply{gen: gen}
	if doc.Boolean != nil {
		out.rows = []string{strconv.FormatBool(*doc.Boolean)}
	}
	for _, b := range doc.Results.Bindings {
		out.rows = append(out.rows, string(b))
	}
	if !q.ordered {
		slices.Sort(out.rows)
	}
	return out, nil
}

// growStore writes entities from to to-1 into st, e_i with a name and a p
// edge to e_(i/2), alternating Add and a two-triple AddIDs. Before entity
// i it waits until served reports i-from replies, so the writes spread
// over the readers' run instead of finishing before it.
func growStore(st *store.Store, from, to int, served func() int) {
	dict := st.Dict()
	p, name := rdf.NewIRI("http://x/p"), rdf.NewIRI("http://x/name")
	for i := from; i < to; i++ {
		for served() < i-from {
			runtime.Gosched()
		}
		e := rdf.NewIRI(fmt.Sprintf("http://x/e%d", i))
		to := rdf.NewIRI(fmt.Sprintf("http://x/e%d", i/2))
		label := rdf.NewString(fmt.Sprint("n", i))
		if i%2 == 0 {
			st.Add(rdf.Triple{S: e, P: p, O: to})
			st.Add(rdf.Triple{S: e, P: name, O: label})
		} else {
			st.AddIDs([]rdf.TripleID{
				{S: dict.Intern(e), P: dict.Intern(p), O: dict.Intern(to)},
				{S: dict.Intern(e), P: dict.Intern(name), O: dict.Intern(label)},
			})
		}
	}
}

// checkServedState preloads st with 100 entities, then has four readers
// send queries through handlers while growStore adds 400 more. Every reply
// must equal what ref(log) serves for the same query, log being st's log
// prefix of length gen-base, gen the reply's Data-Generation.
func checkServedState(t *testing.T, st *store.Store, base func() uint64, queries []stateQuery, handlers []http.Handler, ref func(log []rdf.TripleID) http.Handler) {
	t.Helper()
	growStore(st, 0, 100, func() int { return 100 })
	type served struct {
		query int
		reply servedReply
	}
	var (
		mu      sync.Mutex
		replies []served
		done    atomic.Bool
		wg      sync.WaitGroup
	)
	errs := make(chan error, 4)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; !done.Load(); i++ {
				qi := (r + i) % len(queries)
				got, err := serveQuery(handlers[r%len(handlers)], queries[qi])
				if err != nil {
					errs <- err
					return
				}
				mu.Lock()
				replies = append(replies, served{qi, got})
				mu.Unlock()
			}
		}(r)
	}
	offset := base() - uint64(st.Len())
	growStore(st, 100, 500, func() int { mu.Lock(); defer mu.Unlock(); return len(replies) })
	done.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	log := st.Since(0)
	refs := map[uint64]http.Handler{}
	bad := 0
	for _, s := range replies {
		pos := s.reply.gen - offset
		if s.reply.gen < offset || pos > uint64(len(log)) {
			t.Fatalf("a reply names generation %d, outside [%d, %d]", s.reply.gen, offset, offset+uint64(len(log)))
		}
		if refs[pos] == nil {
			refs[pos] = ref(log[:pos])
		}
		q := queries[s.query]
		want, err := serveQuery(refs[pos], q)
		if err != nil {
			t.Fatal(err)
		}
		if s.reply.gen != want.gen || !slices.Equal(s.reply.rows, want.rows) {
			if bad++; bad <= 3 {
				t.Errorf("%s at generation %d:\n got %d rows: %s\nwant %d rows at generation %d: %s", q.q, s.reply.gen,
					len(s.reply.rows), strings.Join(s.reply.rows, " "), len(want.rows), want.gen, strings.Join(want.rows, " "))
			}
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d replies differ from the state their generation names", bad, len(replies))
	}
}

// TestStoreReplyIsTheStateItNames: one store served by endpoint.NewHandler
// and by a cached handler.
func TestStoreReplyIsTheStateItNames(t *testing.T) {
	st := store.New("people", rdf.NewDict())
	handlers := []http.Handler{
		endpoint.NewHandler(st),
		endpoint.NewCachedHandler(st, endpoint.NewQueryCache(endpoint.DefaultCacheConfig(), st.Generation)),
	}
	checkServedState(t, st, st.Generation, storeQueries, handlers, func(log []rdf.TripleID) http.Handler {
		fresh := store.New("people", st.Dict())
		fresh.AddIDs(log)
		return endpoint.NewHandler(fresh)
	})
}

// TestNodeReplyIsTheStateItNames: a two-store node with static links, with
// and without its result cache. Only one store is written, so a reply's
// generation names that store's log prefix.
func TestNodeReplyIsTheStateItNames(t *testing.T) {
	dict := rdf.NewDict()
	people, labels := store.New("people", dict), store.New("labels", dict)
	var links []linkset.Link
	for i := 0; i < 500; i += 3 {
		f := rdf.NewIRI(fmt.Sprintf("http://y/f%d", i))
		labels.Add(rdf.Triple{S: f, P: rdf.NewIRI("http://y/label"), O: rdf.NewString(fmt.Sprint("l", i))})
		links = append(links, linkset.Link{Left: dict.Intern(rdf.NewIRI(fmt.Sprintf("http://x/e%d", i))), Right: dict.Intern(f)})
	}
	static := linkset.FromLinks(links)
	// Each node publishes the links once, so every node's generation is
	// 1 + labels.Len() + its people store's length.
	node := func(st *store.Store, cache endpoint.CacheConfig) (*fed.Federation, http.Handler) {
		f := fed.New(dict, st, labels)
		f.SetLinks(static)
		return f, New(f, nil, nil, Config{Cache: cache}).Handler(nil)
	}
	queries := append(slices.Clone(storeQueries[:3]),
		stateQuery{`SELECT ?e ?l WHERE { ?e <http://x/name> ?n . ?e <http://y/label> ?l }`, false},
		stateQuery{`SELECT ?s ?o WHERE { ?s <http://x/name> ?o } ORDER BY ?s ?o`, true})
	f, cached := node(people, endpoint.DefaultCacheConfig())
	_, uncached := node(people, endpoint.CacheConfig{})
	checkServedState(t, people, f.DataGeneration, queries, []http.Handler{cached, uncached}, func(log []rdf.TripleID) http.Handler {
		fresh := store.New("people", dict)
		fresh.AddIDs(log)
		_, h := node(fresh, endpoint.CacheConfig{})
		return h
	})
}
