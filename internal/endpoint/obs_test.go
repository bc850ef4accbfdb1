package endpoint

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"alex/internal/obs"
	"alex/internal/store"
)

func TestServerMetricsAndTrace(t *testing.T) {
	h := NewHandler(testStore())
	reg := obs.NewRegistry()
	h.SetObserver(reg)
	srv := httptest.NewServer(h)
	defer srv.Close()

	query := `SELECT ?n WHERE { <http://x/alice> <http://x/name> ?n }`
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	// One good query, one malformed.
	if code, _ := get("/sparql?query=" + url.QueryEscape(query)); code != http.StatusOK {
		t.Fatalf("query status = %d", code)
	}
	if code, _ := get("/sparql?query=NONSENSE"); code != http.StatusBadRequest {
		t.Fatalf("bad query status = %d", code)
	}

	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	for _, want := range []string{`"endpoint.requests":2`, `"endpoint.status.200":1`, `"endpoint.status.400":1`, `"endpoint.request_ns"`} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %s:\n%s", want, body)
		}
	}
	snap := reg.Snapshot()
	if h := snap.Histograms["endpoint.request_ns"]; h.Count != 2 || h.P50 <= 0 {
		t.Errorf("request latency histogram insane: %+v", h)
	}

	code, body = get("/debug/trace?query=" + url.QueryEscape(query))
	if code != http.StatusOK {
		t.Fatalf("/debug/trace status = %d: %s", code, body)
	}
	for _, want := range []string{"1 rows", "query", "pattern", "out=1"} {
		if !strings.Contains(body, want) {
			t.Errorf("/debug/trace missing %q:\n%s", want, body)
		}
	}
	code, body = get("/debug/trace?format=json&query=" + url.QueryEscape(query))
	if code != http.StatusOK || !strings.Contains(body, `"name":"query"`) {
		t.Errorf("/debug/trace JSON form wrong (status %d):\n%s", code, body)
	}
	// The query as an application/sparql-query body, the format in the URL.
	resp, err := http.Post(srv.URL+"/debug/trace?format=json", "application/sparql-query", strings.NewReader(query))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || ct != "application/json" || !strings.Contains(string(raw), `"name":"query"`) {
		t.Errorf("POST /debug/trace?format=json with a query body = %d %s:\n%s", resp.StatusCode, ct, raw)
	}

	// A GET with no query lists the three traces just taken.
	code, body = get("/debug/trace")
	if code != http.StatusOK || !strings.HasPrefix(body, "3 traces\n\nquery (") {
		t.Errorf("GET /debug/trace = %d:\n%s", code, body)
	}
	code, body = get("/debug/trace?format=json")
	var dumps []obs.SpanDump
	if err := json.Unmarshal([]byte(body), &dumps); code != http.StatusOK || err != nil || len(dumps) != 3 || dumps[0].Name != "query" {
		t.Errorf("GET /debug/trace?format=json = %d (%v):\n%s", code, err, body)
	}
}

func TestServerMetricsWithoutObserver(t *testing.T) {
	srv := httptest.NewServer(NewHandler(testStore()))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics without observer = %d, want 200", resp.StatusCode)
	}
	for path, want := range map[string]string{"/debug/trace": "0 traces\n", "/debug/trace?format=json": "[]\n"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || string(body) != want {
			t.Errorf("GET %s without observer = %d %q, want 200 %q", path, resp.StatusCode, body, want)
		}
	}
}

// TestTraceIsTheServedPath: /debug/trace answers through the handler's own
// query function. It reports the rows /sparql returns for the same query,
// a handler over any QueryFunc can be traced, and behind a result cache the
// trace of a query /sparql has just answered is a cache hit, not a second
// evaluation.
func TestTraceIsTheServedPath(t *testing.T) {
	query := `SELECT ?s ?n WHERE { ?s <http://x/name> ?n }`
	for _, c := range []struct {
		name   string
		cached bool
		build  func(st *store.Store, reg *obs.Registry) *Handler
	}{
		{"NewHandler", false, func(st *store.Store, _ *obs.Registry) *Handler { return NewHandler(st) }},
		{"NewCachedHandler", true, func(st *store.Store, reg *obs.Registry) *Handler {
			cache := NewQueryCache(DefaultCacheConfig(), st.Generation)
			cache.SetObserver(reg)
			return NewCachedHandler(st, cache)
		}},
		{"NewQueryHandler", false, func(st *store.Store, _ *obs.Registry) *Handler {
			return NewQueryHandler(CachedStoreQueryFunc(st, nil), nil)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			h := c.build(testStore(), reg)
			h.SetObserver(reg)
			srv := httptest.NewServer(h)
			defer srv.Close()

			code, body := fetch(t, srv, query)
			if code != http.StatusOK {
				t.Fatalf("/sparql = %d: %s", code, body)
			}
			var reply struct {
				Results struct {
					Bindings []map[string]any `json:"bindings"`
				} `json:"results"`
			}
			if err := json.Unmarshal([]byte(body), &reply); err != nil {
				t.Fatal(err)
			}
			rows := len(reply.Results.Bindings)
			if rows == 0 {
				t.Fatal("/sparql returned no rows; the query tests nothing")
			}

			hits := reg.Counter(obs.EndpointResultHits).Value()
			resp, err := http.Get(srv.URL + "/debug/trace?query=" + url.QueryEscape(query))
			if err != nil {
				t.Fatal(err)
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			trace := string(raw)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("/debug/trace = %d: %s", resp.StatusCode, trace)
			}
			if want := fmt.Sprintf("%d rows\n", rows); !strings.HasPrefix(trace, want) {
				t.Errorf("/debug/trace reports %q, /sparql returned %d rows", strings.SplitN(trace, "\n", 2)[0], rows)
			}
			if !c.cached {
				return
			}
			if got := reg.Counter(obs.EndpointResultHits).Value() - hits; got != 1 {
				t.Errorf("/debug/trace moved endpoint.result.hits by %d, want 1", got)
			}
			lines := strings.Split(trace, "\n")
			if len(lines) < 3 || !strings.HasPrefix(lines[2], "query (") || !strings.Contains(lines[2], " cache=hit") {
				t.Errorf("trace root is not a cache hit:\n%s", trace)
			}
			for _, l := range lines[2:] {
				if strings.HasPrefix(strings.TrimSpace(l), "bgp ") {
					t.Errorf("a traced cache hit evaluated again:\n%s", trace)
					break
				}
			}
		})
	}
}
