package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func writeFixtures(t *testing.T, dir string) (dbp, nyt, links string) {
	t.Helper()
	dbp = filepath.Join(dir, "dbpedia.nt")
	nyt = filepath.Join(dir, "nytimes.nt")
	links = filepath.Join(dir, "links.nt")
	write := func(path, content string) {
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(dbp, `<http://dbp/LeBron> <http://dbo/award> "NBA MVP 2013" .
`)
	write(nyt, `<http://nyt/article1> <http://nyo/about> <http://nyt/lebron_per> .
`)
	write(links, `<http://dbp/LeBron> <http://www.w3.org/2002/07/owl#sameAs> <http://nyt/lebron_per> .
`)
	return dbp, nyt, links
}

func get(t *testing.T, u string) (int, string) {
	t.Helper()
	resp, err := http.Get(u)
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

func TestSingleStoreServer(t *testing.T) {
	dbp, _, _ := writeFixtures(t, t.TempDir())
	var log strings.Builder
	h, _, err := buildHandler(config{dataFiles: []string{dbp}}, &log)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	defer srv.Close()

	code, body := get(t, srv.URL+"/sparql?query="+url.QueryEscape("SELECT ?s WHERE { ?s ?p ?o }"))
	if code != http.StatusOK {
		t.Fatalf("/sparql = %d: %s", code, body)
	}
	if !strings.Contains(body, "http://dbp/LeBron") {
		t.Errorf("result missing subject: %s", body)
	}
	if code, _ := get(t, srv.URL+"/stats"); code != http.StatusOK {
		t.Errorf("/stats = %d", code)
	}
	if code, _ := get(t, srv.URL+"/metrics"); code != http.StatusOK {
		t.Errorf("/metrics = %d", code)
	}
	if !strings.Contains(log.String(), "loaded") {
		t.Errorf("no load progress logged: %q", log.String())
	}
}

// TestFederatedServer: multiple -data files plus -links serve a federation
// whose sameAs bridging answers the cross-dataset join, and whose /metrics
// exposes the fed resilience counters.
func TestFederatedServer(t *testing.T) {
	dbp, nyt, links := writeFixtures(t, t.TempDir())
	var log strings.Builder
	h, _, err := buildHandler(config{dataFiles: []string{dbp, nyt}, linksFile: links}, &log)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	defer srv.Close()

	join := `SELECT ?article WHERE { ?player <http://dbo/award> "NBA MVP 2013" . ?article <http://nyo/about> ?player . }`
	code, body := get(t, srv.URL+"/sparql?query="+url.QueryEscape(join))
	if code != http.StatusOK {
		t.Fatalf("/sparql = %d: %s", code, body)
	}
	if !strings.Contains(body, "http://nyt/article1") {
		t.Errorf("federated join missing answer: %s", body)
	}
	if !strings.Contains(log.String(), "federation of 2 sources") {
		t.Errorf("federation not announced: %q", log.String())
	}

	code, body = get(t, srv.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("metrics not JSON: %v", err)
	}
	for _, key := range []string{"fed.queries", "fed.source_errors", "fed.retries", "fed.partial_queries"} {
		if _, ok := snap.Counters[key]; !ok {
			t.Errorf("metrics missing %s (have %v)", key, snap.Counters)
		}
	}

	if code, _ := get(t, srv.URL+"/debug/trace?query="+url.QueryEscape(join)); code != http.StatusOK {
		t.Errorf("/debug/trace = %d", code)
	}
}

// TestFeedbackServer is the streaming loop end to end: -feedback runs a
// live engine whose candidates back the federation's sameAs links, a
// cached cross-dataset join answers through the seeded link, and a
// disapproving POST /feedback removes it — invalidating the cached
// result via the generation bump, so the next query comes back empty.
func TestFeedbackServer(t *testing.T) {
	dbp, nyt, links := writeFixtures(t, t.TempDir())
	var log strings.Builder
	h, _, err := buildHandler(config{
		dataFiles:     []string{dbp, nyt},
		linksFile:     links,
		feedback:      true,
		feedbackBatch: 4,
		feedbackQueue: 64,
		preparedCache: 64,
		resultCache:   64,
	}, &log)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	defer srv.Close()
	if !strings.Contains(log.String(), "live feedback enabled") {
		t.Fatalf("feedback not announced: %q", log.String())
	}

	join := srv.URL + "/sparql?query=" + url.QueryEscape(
		`SELECT ?article WHERE { ?player <http://dbo/award> "NBA MVP 2013" . ?article <http://nyo/about> ?player . }`)
	for i := 0; i < 2; i++ { // second hit comes from the result cache
		code, body := get(t, join)
		if code != http.StatusOK || !strings.Contains(body, "http://nyt/article1") {
			t.Fatalf("join via engine candidates (try %d) = %d: %s", i, code, body)
		}
	}

	resp, err := http.Post(srv.URL+"/feedback", "application/json", strings.NewReader(
		`{"items":[{"left":"http://dbp/LeBron","right":"http://nyt/lebron_per","approved":false}],"flush":true}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /feedback = %d: %s", resp.StatusCode, body)
	}
	var fb struct {
		Accepted int `json:"accepted"`
		Batches  int `json:"batches"`
	}
	if err := json.Unmarshal(body, &fb); err != nil {
		t.Fatalf("feedback response not JSON: %v (%s)", err, body)
	}
	if fb.Accepted != 1 || fb.Batches == 0 {
		t.Fatalf("feedback response = %s, want 1 accepted and an applied batch", body)
	}

	// The disapproved link is gone and the cached result with it.
	code, qbody := get(t, join)
	if code != http.StatusOK {
		t.Fatalf("join after feedback = %d: %s", code, qbody)
	}
	if strings.Contains(qbody, "http://nyt/article1") {
		t.Errorf("disapproved link still answers the join: %s", qbody)
	}

	code, mbody := get(t, srv.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	for _, key := range []string{"endpoint.feedback.requests", "core.stream.submitted", "core.stream.batches"} {
		if !strings.Contains(mbody, key) {
			t.Errorf("metrics missing %s", key)
		}
	}
}

func TestBuildHandlerErrors(t *testing.T) {
	if _, _, err := buildHandler(config{dataFiles: []string{"/nonexistent.nt"}}, io.Discard); err == nil {
		t.Error("missing data file not reported")
	}
	dbp, nyt, links := writeFixtures(t, t.TempDir())
	if _, _, err := buildHandler(config{dataFiles: []string{dbp, nyt}, linksFile: "/nonexistent.nt"}, io.Discard); err == nil {
		t.Error("missing links file not reported")
	}
	dir := t.TempDir()
	if _, _, err := buildHandler(config{dataFiles: []string{dbp, nyt}, linksFile: links, dataDir: dir, feedback: true}, io.Discard); err == nil {
		t.Error("-feedback with -data-dir not rejected")
	}
	if _, _, err := buildHandler(config{dataFiles: []string{dbp}, feedback: true}, io.Discard); err == nil {
		t.Error("-feedback with one -data file not rejected")
	}
	if _, _, err := buildHandler(config{dataFiles: []string{dbp}, dataDir: dir, walFsync: "sometimes"}, io.Discard); err == nil {
		t.Error("bad -wal-fsync mode not rejected")
	}
}

// TestDurableServerRestart is the full server durability cycle: a first
// build cold-loads the -data file and checkpoints it, serves a write via
// the store, and its cleanup folds the WAL; a second build over the same
// directory recovers from disk without touching -data (proven by deleting
// the file) and serves both the original and the post-load triples.
func TestDurableServerRestart(t *testing.T) {
	dir := t.TempDir()
	dbp, _, _ := writeFixtures(t, dir)
	dataDir := filepath.Join(dir, "state")
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		t.Fatal(err)
	}

	var log strings.Builder
	h, cleanup, err := buildHandler(config{dataFiles: []string{dbp}, dataDir: dataDir}, &log)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(log.String(), "checkpointed dbpedia") {
		t.Fatalf("cold start did not checkpoint: %q", log.String())
	}
	srv := httptest.NewServer(h)
	code, body := get(t, srv.URL+"/sparql?query="+url.QueryEscape("SELECT ?s WHERE { ?s ?p ?o }"))
	if code != http.StatusOK || !strings.Contains(body, "http://dbp/LeBron") {
		t.Fatalf("first server query = %d: %s", code, body)
	}
	srv.Close()
	if err := cleanup(); err != nil {
		t.Fatalf("cleanup: %v", err)
	}

	// The restart must not need the original file.
	if err := os.Remove(dbp); err != nil {
		t.Fatal(err)
	}
	log.Reset()
	h2, cleanup2, err := buildHandler(config{dataFiles: []string{dbp}, dataDir: dataDir}, &log)
	if err != nil {
		t.Fatalf("restart over the data dir: %v", err)
	}
	defer func() {
		if err := cleanup2(); err != nil {
			t.Errorf("cleanup after restart: %v", err)
		}
	}()
	if !strings.Contains(log.String(), "recovered dbpedia") {
		t.Fatalf("restart did not recover from disk: %q", log.String())
	}
	srv2 := httptest.NewServer(h2)
	defer srv2.Close()
	code, body = get(t, srv2.URL+"/sparql?query="+url.QueryEscape("SELECT ?s WHERE { ?s ?p ?o }"))
	if code != http.StatusOK || !strings.Contains(body, "http://dbp/LeBron") {
		t.Fatalf("recovered server query = %d: %s", code, body)
	}
}

// TestDurableFederationRestart: two -data files plus -links under
// -data-dir are a federation of two durable stores over one dictionary. A
// restart with both -data files deleted recovers both stores from disk, and
// the federated joins answer byte for byte as they did cold — and as the
// same federation answers without -data-dir.
func TestDurableFederationRestart(t *testing.T) {
	dir := t.TempDir()
	dbp, nyt, links := serveFixtures(t, dir)
	args := []string{"-data", dbp, "-data", nyt, "-links", links, "-data-dir", filepath.Join(dir, "state")}
	joins := serveQueries[1:3]
	replies := func(h http.Handler) [][]byte {
		var out [][]byte
		for _, q := range joins {
			code, body := serveReply(h, "GET", "/sparql?query="+url.QueryEscape(q), "")
			if code != http.StatusOK {
				t.Fatalf("%s = %d: %s", q, code, body)
			}
			out = append(out, body)
		}
		return out
	}
	start := func() (http.Handler, func() error, string) {
		t.Helper()
		cfg, err := parseConfig(args, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		var log strings.Builder
		h, cleanup, err := buildHandler(cfg, &log)
		if err != nil {
			t.Fatal(err)
		}
		return h, cleanup, log.String()
	}

	inMemory, _ := serveArgs(t, "-data", dbp, "-data", nyt, "-links", links)
	want := replies(inMemory)

	h, cleanup, log := start()
	for _, name := range []string{"dbpedia", "nytimes"} {
		if !strings.Contains(log, "checkpointed "+name) {
			t.Errorf("cold start did not checkpoint %s: %q", name, log)
		}
	}
	cold := replies(h)
	if err := cleanup(); err != nil {
		t.Fatalf("cleanup: %v", err)
	}

	for _, path := range []string{dbp, nyt} {
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
	}
	h, cleanup, log = start()
	defer func() {
		if err := cleanup(); err != nil {
			t.Errorf("cleanup after restart: %v", err)
		}
	}()
	for _, name := range []string{"dbpedia", "nytimes"} {
		if !strings.Contains(log, "recovered "+name) {
			t.Errorf("restart did not recover %s from disk: %q", name, log)
		}
	}
	recovered := replies(h)
	for i, q := range joins {
		if !bytes.Equal(cold[i], want[i]) {
			t.Errorf("%s: cold durable reply differs from the in-memory one:\n%s\n%s", q, cold[i], want[i])
		}
		if !bytes.Equal(recovered[i], cold[i]) {
			t.Errorf("%s: recovered reply differs from the cold one:\n%s\n%s", q, recovered[i], cold[i])
		}
	}
}

// TestFailedColdStartKeepsNoSnapshot: a durable store whose -data file
// cannot be loaded leaves nothing behind in -data-dir, so the next start
// loads the file instead of recovering an empty store.
func TestFailedColdStartKeepsNoSnapshot(t *testing.T) {
	dir := t.TempDir()
	dbp, nyt, _ := writeFixtures(t, dir)
	missing := filepath.Join(dir, "missing.nt")
	cfg := config{dataFiles: []string{dbp, missing}, dataDir: filepath.Join(dir, "state")}
	if _, _, err := buildHandler(cfg, io.Discard); err == nil {
		t.Fatal("missing -data file not reported")
	}
	if err := os.Rename(nyt, missing); err != nil {
		t.Fatal(err)
	}
	var log strings.Builder
	h, cleanup, err := buildHandler(cfg, &log)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	if !strings.Contains(log.String(), "checkpointed missing") {
		t.Errorf("second start did not load the file: %q", log.String())
	}
	if code, body := serveReply(h, "GET", "/stats", ""); code != http.StatusOK || !strings.Contains(string(body), `"missing":1`) {
		t.Errorf("/stats = %d: %s, want the loaded triple", code, body)
	}
}

func TestBadQueryGets400(t *testing.T) {
	dbp, _, _ := writeFixtures(t, t.TempDir())
	h, _, err := buildHandler(config{dataFiles: []string{dbp}}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	defer srv.Close()
	if code, _ := get(t, srv.URL+"/sparql?query=NOT+SPARQL"); code != http.StatusBadRequest {
		t.Errorf("bad query = %d, want 400", code)
	}
}

// slowQuery starts a POST whose body is an open pipe: the endpoint blocks
// reading it, deterministically holding one admission slot (and one
// in-flight request) until the returned finish func writes the query and
// closes the body. done yields the final status code. A test that ends
// before calling finish fails the body in its cleanup, which runs before
// any cleanup registered earlier: a server the caller closes through
// t.Cleanup is not left waiting on the pinned request.
func slowQuery(t *testing.T, baseURL string) (finish func(), done <-chan int) {
	t.Helper()
	pr, pw := io.Pipe()
	t.Cleanup(func() { pw.CloseWithError(errors.New("test ended with the query pinned")) })
	req, err := http.NewRequest(http.MethodPost, baseURL+"/sparql", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/sparql-query")
	ch := make(chan int, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			ch <- -1
			return
		}
		resp.Body.Close()
		ch <- resp.StatusCode
	}()
	return func() {
		io.WriteString(pw, "SELECT ?s WHERE { ?s ?p ?o }")
		pw.Close()
	}, ch
}

// TestSaturationSheds503 drives the -max-concurrent/-max-queue/-retry-after
// path: with one slot, no queue, and an in-flight query pinned, further
// requests are shed with 503 + Retry-After, and service resumes once the
// pinned query completes.
func TestSaturationSheds503(t *testing.T) {
	dbp, _, _ := writeFixtures(t, t.TempDir())
	h, _, err := buildHandler(config{
		dataFiles:     []string{dbp},
		maxConcurrent: 1,
		retryAfter:    2 * time.Second,
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	// Not a defer: deferred calls run before slowQuery's cleanup, and
	// Close waits for the pinned request.
	t.Cleanup(srv.Close)

	finish, done := slowQuery(t, srv.URL)
	// The pinned query holds the only slot as soon as the server accepts
	// it; until then concurrent polls may still win the slot, so poll. A
	// poll that holds the slot when the pinned query arrives gets that
	// query shed, and the shed query is never answered: the server reads
	// the request body, which is not sent yet, before it replies. So the
	// loop polls /metrics, whose rejected count shows such a shed, and
	// pins a new query whenever the count grows.
	metricsURL := srv.URL + "/metrics"
	var code int
	var hdr string
	var shed int64
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(metricsURL)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		code, hdr = resp.StatusCode, resp.Header.Get("Retry-After")
		if code == http.StatusServiceUnavailable {
			break
		}
		var snap struct {
			Counters map[string]int64 `json:"counters"`
		}
		if err := json.Unmarshal(body, &snap); err != nil {
			t.Fatalf("metrics not JSON: %v", err)
		}
		if n := snap.Counters["endpoint.admission.rejected"]; n > shed {
			shed = n
			finish, done = slowQuery(t, srv.URL)
		}
		time.Sleep(time.Millisecond)
	}
	if code != http.StatusServiceUnavailable {
		t.Fatalf("saturated server never shed load, last status %d", code)
	}
	if hdr != "2" {
		t.Errorf("Retry-After = %q, want %q from -retry-after=2s", hdr, "2")
	}

	finish()
	if got := <-done; got != http.StatusOK {
		t.Fatalf("pinned query = %d, want 200", got)
	}
	// Capacity freed: requests flow again.
	deadline = time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if code, _ = get(t, srv.URL+"/stats"); code == http.StatusOK {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("server did not recover after the slot freed, last status %d", code)
}

// TestGracefulDrain runs the real serve loop: a query in flight when
// shutdown begins completes with 200 while new connections are refused,
// and runServer returns cleanly within the drain budget.
func TestGracefulDrain(t *testing.T) {
	dbp, _, _ := writeFixtures(t, t.TempDir())
	h, _, err := buildHandler(config{dataFiles: []string{dbp}}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	baseURL := "http://" + ln.Addr().String()
	// Wrap the handler to announce when the pinned POST is in flight, so
	// shutdown provably begins while it executes (Shutdown would otherwise
	// race the client's dial and refuse the connection outright).
	entered := make(chan struct{})
	var enteredOnce sync.Once
	wrapped := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			enteredOnce.Do(func() { close(entered) })
		}
		h.ServeHTTP(w, r)
	})
	stop := make(chan struct{})
	served := make(chan error, 1)
	go func() { served <- runServer(&http.Server{Handler: wrapped}, ln, stop, 10*time.Second) }()

	// Confirm the server is up, then pin a query in flight.
	if code, _ := get(t, baseURL+"/stats"); code != http.StatusOK {
		t.Fatalf("/stats before drain = %d", code)
	}
	http.DefaultClient.CloseIdleConnections() // idle keep-alives would also be drained
	finish, done := slowQuery(t, baseURL)
	select {
	case <-entered:
	case code := <-done:
		t.Fatalf("pinned query ended with %d before the handler saw it", code)
	}
	close(stop)

	// The listener closes promptly on shutdown; poll until new connections
	// are refused while the pinned query is still in flight.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := http.Get(baseURL + "/stats"); err != nil {
			break
		}
		if !time.Now().Before(deadline) {
			t.Fatal("draining server still accepts new connections")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case code := <-done:
		t.Fatalf("in-flight query finished early with %d — pipe trick broken", code)
	default:
	}

	finish()
	if code := <-done; code != http.StatusOK {
		t.Errorf("in-flight query during drain = %d, want 200", code)
	}
	select {
	case err := <-served:
		if err != nil {
			t.Errorf("runServer = %v, want nil after clean drain", err)
		}
	case <-time.After(10 * time.Second):
		t.Error("runServer did not return after the drain completed")
	}
}

// TestMetricsExposeServingNames: with caches and admission enabled,
// /metrics carries every serving-at-load series from the obs registry.
func TestMetricsExposeServingNames(t *testing.T) {
	dbp, _, _ := writeFixtures(t, t.TempDir())
	h, _, err := buildHandler(config{
		dataFiles:     []string{dbp},
		preparedCache: 64,
		resultCache:   64,
		maxConcurrent: 8,
		maxQueue:      8,
		retryAfter:    time.Second,
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	defer srv.Close()

	// One repeated query so the hit counters are live, not just declared.
	q := srv.URL + "/sparql?query=" + url.QueryEscape("SELECT ?s WHERE { ?s ?p ?o }")
	for i := 0; i < 2; i++ {
		if code, body := get(t, q); code != http.StatusOK {
			t.Fatalf("query %d = %d: %s", i, code, body)
		}
	}
	code, body := get(t, srv.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
		Gauges   map[string]int64 `json:"gauges"`
	}
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("metrics not JSON: %v", err)
	}
	for _, key := range []string{
		"endpoint.prepared.hits", "endpoint.prepared.misses", "endpoint.prepared.evictions",
		"endpoint.result.hits", "endpoint.result.misses", "endpoint.result.evictions",
		"endpoint.result.invalidations",
		"endpoint.admission.rejected", "endpoint.admission.queued",
	} {
		if _, ok := snap.Counters[key]; !ok {
			t.Errorf("metrics missing counter %s", key)
		}
	}
	for _, key := range []string{"endpoint.admission.active", "endpoint.admission.queue_depth"} {
		if _, ok := snap.Gauges[key]; !ok {
			t.Errorf("metrics missing gauge %s", key)
		}
	}
	if snap.Counters["endpoint.prepared.hits"] == 0 {
		t.Error("repeated query produced no prepared-cache hits")
	}
	if snap.Counters["endpoint.result.hits"] == 0 {
		t.Error("repeated query produced no result-cache hits")
	}
}
