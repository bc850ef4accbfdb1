package endpoint

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	neturl "net/url"
	"testing"

	"alex/internal/rdf"
	"alex/internal/store"
)

// benchStore builds a store big enough that query evaluation has real
// work to skip: n entities with names, ages and a knows-chain.
func benchStore(n int) *store.Store {
	s := store.New("bench", rdf.NewDict())
	for i := 0; i < n; i++ {
		subj := rdf.NewIRI(fmt.Sprintf("http://x/e%d", i))
		s.Add(rdf.Triple{S: subj, P: rdf.NewIRI("http://x/name"), O: rdf.NewString(fmt.Sprintf("entity %d", i))})
		s.Add(rdf.Triple{S: subj, P: rdf.NewIRI("http://x/age"), O: rdf.NewInt(int64(20 + i%60))})
		s.Add(rdf.Triple{S: subj, P: rdf.NewIRI("http://x/knows"), O: rdf.NewIRI(fmt.Sprintf("http://x/e%d", (i+1)%n))})
	}
	return s
}

const benchQuery = `SELECT ?s ?n WHERE { ?s <http://x/name> ?n . ?s <http://x/age> ?a } ORDER BY ?n LIMIT 50`

// BenchmarkEndpointRepeatQueryCold is the no-cache baseline of the
// repeat-query pair: every iteration parses, compiles and evaluates.
// Its ratio to the Hit variant is the cache's documented win.
func BenchmarkEndpointRepeatQueryCold(b *testing.B) {
	query := CachedStoreQueryFunc(benchStore(2000), nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := query(context.Background(), benchQuery); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEndpointRepeatQueryHit measures a steady-state repeat query
// through both caches: normalize, LRU lookup, generation check — no
// parse, no evaluation.
func BenchmarkEndpointRepeatQueryHit(b *testing.B) {
	st := benchStore(2000)
	query := CachedStoreQueryFunc(st, NewQueryCache(DefaultCacheConfig(), st.Generation))
	if _, err := query(context.Background(), benchQuery); err != nil {
		b.Fatal(err) // prime
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := query(context.Background(), benchQuery); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEndpointFeedback measures the live-feedback ingestion path
// end to end: JSON decode, IRI resolution, stream submit, and a forced
// flush so every request pays the episode-apply cost: the per-request
// price of the streaming loop.
func BenchmarkEndpointFeedback(b *testing.B) {
	w := newFeedbackWorld(b, 8)
	links := w.pair.Truth.Links()
	if len(links) < 8 {
		b.Fatalf("only %d truth links", len(links))
	}
	// Rotate over a few pre-marshalled bodies so iterations are not
	// byte-identical requests.
	var bodies [][]byte
	for i := 0; i+8 <= len(links) && len(bodies) < 4; i += 8 {
		bodies = append(bodies, w.requestFor(links[i:i+8], true))
	}
	if _, resp := w.post(b, bodies[0]); resp == nil {
		b.Fatal("prime request failed")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/feedback", bytes.NewReader(bodies[i%len(bodies)]))
		rec := httptest.NewRecorder()
		w.handler.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
}

// BenchmarkEndpointSaturation drives the full serving stack — pooled
// client connections, admission control, caches — at an offered load
// above MaxConcurrent, so requests queue. It reports per-request latency
// under saturation and the shed fraction; rejections are expected to be
// zero because the queue bound equals the parallelism surplus.
func BenchmarkEndpointSaturation(b *testing.B) {
	st := benchStore(2000)
	cache := NewQueryCache(DefaultCacheConfig(), st.Generation)
	adm := NewAdmission(NewCachedHandler(st, cache), AdmissionConfig{
		MaxConcurrent: 4,
		MaxQueue:      64,
	})
	srv := httptest.NewServer(adm)
	defer srv.Close()
	url := srv.URL + "/sparql?query=" + neturl.QueryEscape(benchQuery)

	b.SetParallelism(4) // offered load: 4 × GOMAXPROCS clients against 4 slots
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			resp, err := http.Get(url)
			if err != nil {
				b.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
				b.Errorf("status %d", resp.StatusCode)
				return
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(adm.Rejected())/float64(b.N), "shed/op")
}
