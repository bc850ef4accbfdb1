package endpoint

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"testing"

	"alex/internal/obs"
	"alex/internal/rdf"
)

// cacheCorpus is the query set the equivalence tests replay: hits, misses,
// ASK both ways, aggregates, ordering, and spelling variants that collide
// on one normalized key.
var cacheCorpus = []string{
	`SELECT ?n WHERE { <http://x/alice> <http://x/name> ?n }`,
	`select ?n where { <http://x/alice> <http://x/name> ?n }`, // same key as above
	`SELECT ?p ?o WHERE { <http://x/alice> ?p ?o }`,
	`ASK { <http://x/alice> <http://x/knows> <http://x/bob> }`,
	`ASK { <http://x/bob> <http://x/knows> <http://x/alice> }`,
	`SELECT ?s (COUNT(?o) AS ?c) WHERE { ?s ?p ?o } GROUP BY ?s ORDER BY ?s`,
	`SELECT ?s ?n WHERE { ?s <http://x/name> ?n } ORDER BY ?n`,
	`SELECT ?x WHERE { ?x <http://x/nosuch> ?y }`,
}

// fetch returns status, body for a GET query against a handler.
func fetch(t *testing.T, srv *httptest.Server, query string) (int, string) {
	t.Helper()
	resp, err := http.Get(srv.URL + "/sparql?query=" + url.QueryEscape(query))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestCachedHandlerAnswerIdentical is the correctness contract of the
// caching layer: for every corpus query, the cached handler's HTTP
// response — repeated so the second execution is a cache hit — is
// byte-identical to the uncached handler's over the same store.
func TestCachedHandlerAnswerIdentical(t *testing.T) {
	st := testStore()
	plain := httptest.NewServer(NewHandler(st))
	defer plain.Close()
	cache := NewQueryCache(DefaultCacheConfig(), st.Generation)
	cached := httptest.NewServer(NewCachedHandler(st, cache))
	defer cached.Close()

	for _, q := range cacheCorpus {
		wantCode, wantBody := fetch(t, plain, q)
		for round := 0; round < 3; round++ { // miss, hit, hit
			code, body := fetch(t, cached, q)
			if code != wantCode || body != wantBody {
				t.Errorf("round %d of %q: cached (%d, %q) != uncached (%d, %q)",
					round, q, code, body, wantCode, wantBody)
			}
		}
	}
}

// TestResultCacheInvalidation is the stale-read regression test: a cached
// answer must never survive a store mutation. Every mutation path is
// exercised — add and bulk add — and after each one the cached
// handler must serve the post-mutation answer.
func TestResultCacheInvalidation(t *testing.T) {
	st := testStore()
	reg := obs.NewRegistry()
	cache := NewQueryCache(DefaultCacheConfig(), st.Generation)
	cache.SetObserver(reg)
	query := CachedStoreQueryFunc(st, cache)
	q := `SELECT ?n WHERE { <http://x/alice> <http://x/nick> ?n }`

	rows := func() int {
		res, err := query(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		return res.rowCount()
	}
	if got := rows(); got != 0 {
		t.Fatalf("pre-mutation rows = %d, want 0", got)
	}
	rows() // cache hit at the same generation

	nick := func(v string) rdf.Triple {
		return rdf.Triple{S: rdf.NewIRI("http://x/alice"), P: rdf.NewIRI("http://x/nick"), O: rdf.NewString(v)}
	}
	st.Add(nick("Ally"))
	if got := rows(); got != 1 {
		t.Fatalf("rows after Add = %d, want 1 (stale cached answer served)", got)
	}
	st.Load([]rdf.Triple{nick("Al"), nick("A")})
	if got := rows(); got != 3 {
		t.Fatalf("rows after bulk Load = %d, want 3 (stale cached answer served)", got)
	}

	snap := reg.Snapshot()
	if n := snap.Counters[obs.EndpointResultInvalidations]; n != 2 {
		t.Errorf("result invalidations = %d, want 2", n)
	}
	if snap.Counters[obs.EndpointResultHits] == 0 {
		t.Error("no result-cache hits recorded")
	}
	if snap.Counters[obs.EndpointPreparedHits] == 0 {
		t.Error("no prepared-cache hits recorded")
	}
}

// TestPreparedCacheSharesNormalizedKey checks spelling variants of one
// query share a prepared entry: the second variant is a prepared hit even
// though its text differs.
func TestPreparedCacheSharesNormalizedKey(t *testing.T) {
	st := testStore()
	reg := obs.NewRegistry()
	cache := NewQueryCache(DefaultCacheConfig(), st.Generation)
	cache.SetObserver(reg)
	if _, err := cache.Prepare(`SELECT ?n WHERE { <http://x/alice> <http://x/name> ?n }`); err != nil {
		t.Fatal(err)
	}
	if _, err := cache.Prepare("select ?n\nwhere { <http://x/alice> <http://x/name> ?n }"); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters[obs.EndpointPreparedHits]; got != 1 {
		t.Errorf("prepared hits = %d, want 1", got)
	}
	if got := snap.Counters[obs.EndpointPreparedMisses]; got != 1 {
		t.Errorf("prepared misses = %d, want 1", got)
	}
}

// TestCacheEvictionBounds caps both caches at two entries and checks the
// bound holds with evictions counted.
func TestCacheEvictionBounds(t *testing.T) {
	st := testStore()
	reg := obs.NewRegistry()
	cache := NewQueryCache(CacheConfig{PreparedSize: 2, ResultSize: 2}, st.Generation)
	cache.SetObserver(reg)
	query := CachedStoreQueryFunc(st, cache)
	for i := 0; i < 5; i++ {
		q := fmt.Sprintf(`SELECT ?o WHERE { <http://x/alice> <http://x/p%d> ?o }`, i)
		if _, err := query(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	if n := cache.prepared.len(); n > 2 {
		t.Errorf("prepared cache holds %d entries, bound is 2", n)
	}
	if n := cache.results.len(); n > 2 {
		t.Errorf("result cache holds %d entries, bound is 2", n)
	}
	snap := reg.Snapshot()
	if snap.Counters[obs.EndpointPreparedEvictions] != 3 {
		t.Errorf("prepared evictions = %d, want 3", snap.Counters[obs.EndpointPreparedEvictions])
	}
	if snap.Counters[obs.EndpointResultEvictions] != 3 {
		t.Errorf("result evictions = %d, want 3", snap.Counters[obs.EndpointResultEvictions])
	}
}

// TestNilAndDisabledCache: a nil *QueryCache and a zero-sized config both
// mean "evaluate everything", with identical answers and bad-query errors.
func TestNilAndDisabledCache(t *testing.T) {
	st := testStore()
	q := `SELECT ?n WHERE { <http://x/alice> <http://x/name> ?n }`
	for name, cache := range map[string]*QueryCache{
		"nil":      nil,
		"disabled": NewQueryCache(CacheConfig{}, st.Generation),
	} {
		query := CachedStoreQueryFunc(st, cache)
		res, err := query(context.Background(), q)
		if err != nil {
			t.Fatalf("%s cache: %v", name, err)
		}
		if res.rowCount() != 1 {
			t.Errorf("%s cache: rows = %d, want 1", name, res.rowCount())
		}
		_, err = query(context.Background(), "NOT SPARQL")
		var bad *BadQueryError
		if !errors.As(err, &bad) {
			t.Errorf("%s cache: bad query returned %v, want BadQueryError", name, err)
		}
	}
}

// TestCachedHandlerBadQuery400 checks the cached HTTP path still maps
// parse failures to 400, not 500.
func TestCachedHandlerBadQuery400(t *testing.T) {
	st := testStore()
	cache := NewQueryCache(DefaultCacheConfig(), st.Generation)
	srv := httptest.NewServer(NewCachedHandler(st, cache))
	defer srv.Close()
	if code, _ := fetch(t, srv, "NOT SPARQL"); code != http.StatusBadRequest {
		t.Errorf("bad query = %d, want 400", code)
	}
}

// TestCacheHammer runs concurrent cached queries against interleaved
// store mutations and evictions under small cache bounds. Run with -race
// this is the data-race test of the whole caching layer; functionally it
// asserts reads are never stale relative to the mutations that have
// completed before the read started.
func TestCacheHammer(t *testing.T) {
	st := testStore()
	cache := NewQueryCache(CacheConfig{PreparedSize: 4, ResultSize: 4}, st.Generation)
	cache.SetObserver(obs.NewRegistry())
	query := CachedStoreQueryFunc(st, cache)

	// Writers append monotonically-numbered facts; the hot query counts
	// them. A result may lag a concurrent write, but must never exceed the
	// number written nor go below the count at read start.
	const writes = 200
	var written int // guarded by wmu
	var wmu sync.Mutex
	countQ := `SELECT ?v WHERE { <http://x/hammer> <http://x/val> ?v }`

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < writes; i++ {
			tr := rdf.Triple{
				S: rdf.NewIRI("http://x/hammer"),
				P: rdf.NewIRI("http://x/val"),
				O: rdf.NewString(fmt.Sprintf("v%d", i)),
			}
			wmu.Lock()
			st.Add(tr)
			written++
			wmu.Unlock()
		}
	}()
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 300; i++ {
				wmu.Lock()
				floor := written
				wmu.Unlock()
				var q string
				if rng.Intn(3) == 0 {
					// Churn distinct queries through the tiny LRUs to force
					// concurrent evictions.
					q = fmt.Sprintf(`SELECT ?o WHERE { <http://x/alice> <http://x/p%d> ?o }`, rng.Intn(16))
				} else {
					q = countQ
				}
				res, err := query(context.Background(), q)
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if q == countQ {
					got := res.rowCount()
					if got < floor || got > writes {
						t.Errorf("worker %d: stale read: %d rows, >= %d written at read start", w, got, floor)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
