package endpoint

import (
	"context"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"alex/internal/obs"
	"alex/internal/rdf"
)

// TestReplyCarriesGeneration: every store handler sends the store's
// generation in a reply header, cached or not, and a hit sends the
// generation its answer was computed at, which is the live one.
func TestReplyCarriesGeneration(t *testing.T) {
	st := testStore()
	handlers := map[string]*Handler{
		"NewHandler":             NewHandler(st),
		"NewCachedHandler":       NewCachedHandler(st, NewQueryCache(DefaultCacheConfig(), st.Generation)),
		"NewCachedHandler(nil)":  NewCachedHandler(st, nil),
		"CachedStoreQueryFunc()": NewQueryHandler(CachedStoreQueryFunc(st, NewQueryCache(DefaultCacheConfig(), st.Generation)), nil),
	}
	query := "/sparql?query=" + url.QueryEscape(`SELECT ?s WHERE { ?s ?p ?o }`)
	for round := 0; round < 3; round++ {
		want := strconv.FormatUint(st.Generation(), 10)
		for name, h := range handlers {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", query, nil))
			if got := rec.Header().Get(generationHeader); rec.Code != 200 || got != want {
				t.Errorf("round %d, %s: status %d, generation %q, want %q", round, name, rec.Code, got, want)
			}
		}
		if round == 1 {
			st.Add(rdf.Triple{S: rdf.NewIRI("http://x/carol"), P: rdf.NewIRI("http://x/name"), O: rdf.NewString("Carol")})
		}
	}
}

// TestClientCountsFollowGeneration: a cached COUNT is used while replies
// carry the generation it was counted at, and dropped by the first reply
// that carries another, which also advances Generation. An endpoint that
// sends no generation is taken never to change.
func TestClientCountsFollowGeneration(t *testing.T) {
	ctx := context.Background()
	carol := rdf.Triple{S: rdf.NewIRI("http://x/carol"), P: rdf.NewIRI("http://x/email"), O: rdf.NewString("c@x")}
	for _, headers := range []bool{true, false} {
		st := testStore()
		h := NewHandler(st)
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if !headers {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, r)
				w.WriteHeader(rec.Code)
				_, _ = w.Write(rec.Body.Bytes())
				return
			}
			h.ServeHTTP(w, r)
		}))
		c := NewClient("people", srv.URL+"/sparql", srv.Client())
		count := func() float64 {
			t.Helper()
			n, err := c.Count(ctx, rdf.Term{}, carol.P, rdf.Term{})
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
		if n := count(); n != 0 {
			t.Fatalf("headers=%t: email counted %v before the add, want 0", headers, n)
		}
		gen := c.Generation()
		st.Add(carol)
		if n := count(); n != 0 {
			t.Errorf("headers=%t: cached count moved to %v with no reply in between", headers, n)
		}
		if _, err := c.Query(ctx, `ASK { ?s ?p ?o }`); err != nil {
			t.Fatal(err)
		}
		wantN, wantGen := 1.0, gen+1
		if !headers {
			wantN, wantGen = 0, 0
		}
		if n, g := count(), c.Generation(); n != wantN || g != wantGen {
			t.Errorf("headers=%t: after one reply, count %v and generation %d, want %v and %d", headers, n, g, wantN, wantGen)
		}
		srv.Close()
	}
}

// TestOneGenerationReadPerRequest: a request reads the cache's generation
// once, and only to look up a result: a hit evaluates nothing, a miss pins
// the store once, a disabled cache never reads it. The reply carries the
// generation the evaluation read, so a write that lands between the lookup
// and the pin is in the rows and in the header alike, and the entry is
// then served at that generation.
func TestOneGenerationReadPerRequest(t *testing.T) {
	st := testStore()
	reg := obs.NewRegistry()
	st.SetObserver(reg)
	evals := reg.Counter(obs.StoreProbeScan("people"))
	var reads int
	var inject *rdf.Triple // added by the next read, after it
	gen := func() uint64 {
		reads++
		g := st.Generation()
		if inject != nil {
			st.Add(*inject)
			inject = nil
		}
		return g
	}
	carol := rdf.Triple{S: rdf.NewIRI("http://x/carol"), P: rdf.NewIRI("http://x/name"), O: rdf.NewString("Carol")}
	query := "/sparql?query=" + url.QueryEscape(`SELECT ?s WHERE { ?s ?p ?o }`)
	cached := NewCachedHandler(st, NewQueryCache(DefaultCacheConfig(), gen))
	written := NewCachedHandler(st, NewQueryCache(DefaultCacheConfig(), gen))
	for _, c := range []struct {
		name         string
		h            *Handler
		write        bool
		reads, evals int
	}{
		{"miss", cached, false, 1, 1},
		{"hit", cached, false, 1, 0},
		{"no cache", NewCachedHandler(st, NewQueryCache(CacheConfig{}, gen)), false, 0, 1},
		{"write after the lookup", written, true, 1, 1},
		{"hit after the write", written, false, 1, 0},
	} {
		if c.write {
			inject = &carol
		}
		reads = 0
		before := evals.Value()
		rec := httptest.NewRecorder()
		c.h.ServeHTTP(rec, httptest.NewRequest("GET", query, nil))
		if want := strconv.FormatUint(st.Generation(), 10); rec.Code != 200 || rec.Header().Get(generationHeader) != want {
			t.Errorf("%s: status %d, generation %q, want %s", c.name, rec.Code, rec.Header().Get(generationHeader), want)
		}
		if got := strings.Count(rec.Body.String(), `"http://x/`); got != st.Len() {
			t.Errorf("%s: %d rows, want the store's %d", c.name, got, st.Len())
		}
		if reads != c.reads || evals.Value()-before != int64(c.evals) {
			t.Errorf("%s: %d generation reads and %d evaluations, want %d and %d", c.name, reads, evals.Value()-before, c.reads, c.evals)
		}
	}
}
