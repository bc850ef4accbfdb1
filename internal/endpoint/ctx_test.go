package endpoint

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"alex/internal/rdf"
	"alex/internal/store"
)

// TestQueryContextDeadline: a context deadline aborts an in-flight request
// against a slow endpoint instead of hanging.
func TestQueryContextDeadline(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer srv.Close()
	defer close(release)

	c := NewClient("slow", srv.URL, srv.Client())
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	_, err := c.QueryContext(ctx, "SELECT ?s WHERE { ?s ?p ?o }")
	if err == nil {
		t.Fatal("QueryContext returned no error from a hung endpoint")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded cause", err)
	}
	if took := time.Since(t0); took > time.Second {
		t.Errorf("deadline not honored: took %v", took)
	}
}

// TestQueryContextCancel: cancelling before the call fails fast.
func TestQueryContextCancel(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer srv.Close()
	c := NewClient("c", srv.URL, srv.Client())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.QueryContext(ctx, "ASK { ?s ?p ?o }"); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled cause", err)
	}
}

// TestServerPropagatesRequestContext: the handler hands the request's
// context to its QueryFunc, so client disconnects can abort evaluation.
func TestServerPropagatesRequestContext(t *testing.T) {
	got := make(chan context.Context, 1)
	h := NewQueryHandler(func(ctx context.Context, query string) (*Result, error) {
		got <- ctx
		return &Result{}, nil
	}, nil)
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/sparql?query=ASK%20%7B%20%3Fs%20%3Fp%20%3Fo%20%7D")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	select {
	case ctx := <-got:
		if ctx == nil || ctx == context.Background() {
			t.Error("QueryFunc did not receive the request context")
		}
	default:
		t.Fatal("QueryFunc never called")
	}
}

// TestStoreQueryHonoursCancellation: a single-store query ends with its
// request's context, mid-join, whichever handler serves it. The query
// counts a three-way cross product over 200 triples: eight million rows, a
// few hundred milliseconds of work if left to finish (sized, and counted
// rather than selected, so that an evaluator deaf to its context still
// finishes, in memory a test may use), against a 20 ms deadline. Over HTTP
// the failure is a 504.
func TestStoreQueryHonoursCancellation(t *testing.T) {
	st := store.New("cross", rdf.NewDict())
	for i := 0; i < 200; i++ {
		st.Add(rdf.Triple{
			S: rdf.NewIRI(fmt.Sprintf("http://x/s%d", i)),
			P: rdf.NewIRI(fmt.Sprintf("http://x/p%d", i%7)),
			O: rdf.NewInt(int64(i)),
		})
	}
	const cross = `SELECT (COUNT(*) AS ?n) WHERE { ?a ?p ?o . ?b ?q ?r . ?c ?s ?t }`
	for name, h := range map[string]*Handler{
		"NewHandler":       NewHandler(st),
		"NewCachedHandler": NewCachedHandler(st, NewQueryCache(DefaultCacheConfig(), st.Generation)),
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		t0 := time.Now()
		_, err := h.query(ctx, cross)
		took := time.Since(t0)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s: err = %v after %v, want DeadlineExceeded", name, err, took)
		}
		if took > time.Second {
			t.Errorf("%s: deadline not honoured: took %v", name, took)
		}

		ctx, cancel = context.WithTimeout(context.Background(), 20*time.Millisecond)
		req := httptest.NewRequest(http.MethodGet, "/sparql?query="+url.QueryEscape(cross), nil).WithContext(ctx)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		cancel()
		if rec.Code != http.StatusGatewayTimeout {
			t.Errorf("%s: status %d over HTTP, want 504", name, rec.Code)
		}
	}
}

// TestValuesQueryHonoursCancellation: a query built of chained VALUES
// blocks ends with its request too. Three 200-value blocks join into eight
// million rows, a few hundred milliseconds of work, against a 20 ms
// deadline; VALUES used to neither look at the context nor stop short of
// reserving the whole product up front. Over HTTP the failure is a 504.
func TestValuesQueryHonoursCancellation(t *testing.T) {
	st := store.New("values", rdf.NewDict())
	st.Add(rdf.Triple{S: rdf.NewIRI("http://x/s"), P: rdf.NewIRI("http://x/p"), O: rdf.NewInt(0)})
	var block strings.Builder
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&block, " %d", i)
	}
	vals := block.String()
	query := fmt.Sprintf(`SELECT (COUNT(*) AS ?n) WHERE { VALUES ?a {%s} VALUES ?b {%s} VALUES ?c {%s} }`, vals, vals, vals)
	for name, h := range map[string]*Handler{
		"NewHandler":       NewHandler(st),
		"NewCachedHandler": NewCachedHandler(st, NewQueryCache(DefaultCacheConfig(), st.Generation)),
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		t0 := time.Now()
		_, err := h.query(ctx, query)
		took := time.Since(t0)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s: err = %v after %v, want DeadlineExceeded", name, err, took)
		}
		if took > time.Second {
			t.Errorf("%s: deadline not honoured: took %v", name, took)
		}

		ctx, cancel = context.WithTimeout(context.Background(), 20*time.Millisecond)
		req := httptest.NewRequest(http.MethodGet, "/sparql?query="+url.QueryEscape(query), nil).WithContext(ctx)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		cancel()
		if rec.Code != http.StatusGatewayTimeout {
			t.Errorf("%s: status %d over HTTP, want 504", name, rec.Code)
		}
	}
}

// pollDeadline is a context whose deadline passes at an exact point of an
// evaluation rather than at a time: Err answers nil to its first after
// looks and DeadlineExceeded from then on. polls counts the looks.
type pollDeadline struct {
	context.Context
	after int64
	polls atomic.Int64
}

func (c *pollDeadline) Err() error {
	if c.polls.Add(1) > c.after {
		return context.DeadlineExceeded
	}
	return nil
}

// TestOrderByGroupByHonourCancellation: ORDER BY and GROUP BY end with
// their request too, even when the deadline passes after the patterns are
// matched. Two 200-value VALUES blocks join into 40,000 rows, which the
// query then sorts or groups. Each query first runs under a context that
// never expires, once as written and once without its ORDER BY or GROUP
// BY, to count how often matching alone looks at the context; run again
// under a deadline that passes at the first look after that, it must stop
// with DeadlineExceeded — which a sort or grouping deaf to its context
// would never reach — and over HTTP answer 504.
func TestOrderByGroupByHonourCancellation(t *testing.T) {
	st := store.New("finalize", rdf.NewDict())
	st.Add(rdf.Triple{S: rdf.NewIRI("http://x/s"), P: rdf.NewIRI("http://x/p"), O: rdf.NewInt(0)})
	var block strings.Builder
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&block, " %d", i)
	}
	where := fmt.Sprintf(`WHERE { VALUES ?a {%s} VALUES ?b {%s} }`, block.String(), block.String())
	plain := `SELECT ?a ?b ` + where
	for clause, query := range map[string]string{
		"ORDER BY": `SELECT ?a ?b ` + where + ` ORDER BY DESC(?b) ?a`,
		"GROUP BY": `SELECT ?b (COUNT(?a) AS ?n) ` + where + ` GROUP BY ?b`,
	} {
		for name, newHandler := range map[string]func() *Handler{
			"NewHandler":       func() *Handler { return NewHandler(st) },
			"NewCachedHandler": func() *Handler { return NewCachedHandler(st, NewQueryCache(DefaultCacheConfig(), st.Generation)) },
		} {
			// polls runs q on a fresh handler under a context that never
			// expires and counts its looks.
			polls := func(q string) int64 {
				ctx := &pollDeadline{Context: context.Background(), after: 1 << 62}
				if _, err := newHandler().query(ctx, q); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				return ctx.polls.Load()
			}
			matching, whole := polls(plain), polls(query)
			if whole <= matching {
				t.Errorf("%s, %s: the query looks at its context %d times, matching alone %d: the %s pass never looks",
					name, clause, whole, matching, clause)
				continue
			}
			ctx := &pollDeadline{Context: context.Background(), after: matching}
			if _, err := newHandler().query(ctx, query); !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("%s, %s: err = %v, want DeadlineExceeded", name, clause, err)
			}

			ctx = &pollDeadline{Context: context.Background(), after: matching}
			req := httptest.NewRequest(http.MethodGet, "/sparql?query="+url.QueryEscape(query), nil).WithContext(ctx)
			rec := httptest.NewRecorder()
			newHandler().ServeHTTP(rec, req)
			if rec.Code != http.StatusGatewayTimeout {
				t.Errorf("%s, %s: status %d over HTTP, want 504", name, clause, rec.Code)
			}
		}
	}
}
