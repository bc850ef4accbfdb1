package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"alex/internal/core"
	"alex/internal/datagen"
	"alex/internal/endpoint"
	"alex/internal/fed"
	"alex/internal/linkset"
	"alex/internal/obs"
	"alex/internal/rdf"
	"alex/internal/store"
)

// testNode serves a small generated pair through an engine seeded with the
// truth links plus as many decoys, so feedback has links to confirm and
// links to remove, and records into a registry. It returns the data
// generation New started from.
func testNode(t *testing.T) (*Node, *datagen.Pair, uint64) {
	t.Helper()
	pair := datagen.GeneratePair(datagen.DBpediaNYTimes(0.12, 3))
	links := pair.Truth.Links()
	s1, s2 := pair.DS1.Subjects(), pair.DS2.Subjects()
	for i := range links {
		links = append(links, linkset.Link{Left: s1[(7*i)%len(s1)], Right: s2[(11*i+1)%len(s2)]})
	}
	cfg := core.Defaults()
	cfg.Seed, cfg.Partitions, cfg.Workers, cfg.EpisodeSize = 3, 2, 1, 16
	f := fed.New(pair.Dict, pair.DS1, pair.DS2)
	gen := f.DataGeneration()
	n := New(f, pair.DS1, pair.DS2, Config{
		Engine: &cfg, Links: links, Stream: core.StreamConfig{BatchSize: 8}, Cache: endpoint.DefaultCacheConfig(), Obs: obs.NewRegistry(),
	})
	return n, pair, gen
}

// checkPublished is the node's one invariant after a path that changes
// candidates: the federation serves exactly the engine's candidates, and
// the data generation has moved past before, so no cached result computed
// over the old links is served.
func checkPublished(t *testing.T, n *Node, before uint64, path string) uint64 {
	t.Helper()
	if got, want := n.Fed.Links().Sorted(), n.Engine.Candidates().Sorted(); !slices.Equal(got, want) {
		t.Errorf("after %s: federation serves %d links, engine has %d candidates", path, len(got), len(want))
	}
	gen := n.Fed.DataGeneration()
	if gen == before {
		t.Errorf("after %s: data generation did not move from %d", path, before)
	}
	return gen
}

// judgements approves every truth link among the last k candidates and
// rejects the rest.
func judgements(n *Node, pair *datagen.Pair, k int) []core.Feedback {
	var items []core.Feedback
	cands := n.Engine.Candidates().Links()
	for _, l := range cands[len(cands)-k:] {
		items = append(items, n.Judge([]linkset.Link{l}, pair.Truth.Contains(l))...)
	}
	return items
}

// feedbackBody renders items as a flushed POST /feedback body.
func feedbackBody(t *testing.T, pair *datagen.Pair, items []core.Feedback) string {
	t.Helper()
	req := endpoint.FeedbackRequest{Flush: true}
	for _, it := range items {
		req.Items = append(req.Items, endpoint.FeedbackItem{
			Left: pair.Dict.Term(it.Link.Left).Value, Right: pair.Dict.Term(it.Link.Right).Value, Approved: it.Approved,
		})
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func post(h http.Handler, path, contentType, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", contentType)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestEveryPathRepublishes(t *testing.T) {
	n, pair, gen := testNode(t)
	gen = checkPublished(t, n, gen, "New")

	if st := n.Apply(judgements(n, pair, 24)); st.Changed == 0 {
		t.Fatal("Apply changed no candidates")
	}
	gen = checkPublished(t, n, gen, "Apply")

	prev := n.Engine.Candidates().Links()
	rec := post(n.Handler(nil), "/feedback", "application/json", feedbackBody(t, pair, judgements(n, pair, 24)))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /feedback = %d: %s", rec.Code, rec.Body)
	}
	if slices.Equal(prev, n.Engine.Candidates().Links()) {
		t.Fatalf("flushed /feedback changed no candidates: %s", rec.Body)
	}
	checkPublished(t, n, gen, "POST /feedback")
}

func TestStaticLinks(t *testing.T) {
	pair := datagen.GeneratePair(datagen.DBpediaNYTimes(0.12, 3))
	f := fed.New(pair.Dict, pair.DS1, pair.DS2)
	f.SetLinks(pair.Truth)
	n := New(f, nil, nil, Config{})
	if n.Engine != nil || n.Stream != nil {
		t.Fatal("a node without an engine config built an engine")
	}
	if got, want := n.Fed.Links().Sorted(), pair.Truth.Sorted(); !slices.Equal(got, want) {
		t.Errorf("federation serves %d links, want the %d static ones", len(got), len(want))
	}
	if rec := post(n.Handler(nil), "/feedback", "application/json", `{"items":[]}`); rec.Code != http.StatusNotImplemented {
		t.Errorf("POST /feedback without an engine = %d, want %d", rec.Code, http.StatusNotImplemented)
	}
}

// parallelRewrites matches a pattern span's input rows and the sameAs
// rewrites its bound-join workers counted.
var parallelRewrites = regexp.MustCompile(` in=(\d+) rewrites=`)

// TestConcurrentQueriesAndFeedback serves /sparql readers and flushed
// /feedback writers against one handler at once. Run under -race (make
// race): the writers republish links while the readers evaluate over them
// and hit the result cache. Every other request of one reader goes to
// /debug/trace, and its query joins two patterns through four bound-join
// workers, so the workers write spans into the request's trace while the
// writers' episodes add theirs to the registry.
func TestConcurrentQueriesAndFeedback(t *testing.T) {
	n, pair, _ := testNode(t)
	n.Fed.SetParallelism(4)
	h := n.Handler(nil)
	var queries []string
	for _, l := range n.Engine.Candidates().Links()[:8] {
		left := pair.Dict.Term(l.Left)
		queries = append(queries,
			"query="+url.QueryEscape(fmt.Sprintf("SELECT ?p ?o WHERE { %s ?p ?o }", left)),
			"query="+url.QueryEscape(fmt.Sprintf("SELECT ?q ?v WHERE { %s ?p ?o . %s ?q ?v }", left, left)))
	}
	var rewrites atomic.Bool
	bodies := make([]string, 4)
	for i := range bodies {
		bodies[i] = feedbackBody(t, pair, judgements(n, pair, 8*(i+1)))
	}
	var wg sync.WaitGroup
	errs := make(chan string, 4) // one send at most per goroutine
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				path, q := "/sparql", queries[2*((r+i)%(len(queries)/2))]
				if r == 0 && i%2 == 1 {
					path, q = "/debug/trace", queries[2*((i/2)%(len(queries)/2))+1]
				}
				rec := post(h, path, "application/x-www-form-urlencoded", q)
				if rec.Code != http.StatusOK {
					errs <- fmt.Sprintf("%s = %d: %s", path, rec.Code, rec.Body)
					return
				}
				for _, m := range parallelRewrites.FindAllStringSubmatch(rec.Body.String(), -1) {
					if in, _ := strconv.Atoi(m[1]); in >= 8 {
						rewrites.Store(true)
					}
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, body := range bodies {
			if rec := post(h, "/feedback", "application/json", body); rec.Code != http.StatusOK {
				errs <- fmt.Sprintf("/feedback = %d: %s", rec.Code, rec.Body)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if !rewrites.Load() {
		t.Error("no traced pattern of 8 rows or more rewrote through a link; no bound-join worker wrote a span")
	}
	checkPublished(t, n, 0, "concurrent feedback")
}

// TestTraceListHoldsEpisodes: a GET /debug/trace with no query lists the
// traces the node's registry keeps, and the engine records the episode a
// flushed POST /feedback applies there.
func TestTraceListHoldsEpisodes(t *testing.T) {
	n, pair, _ := testNode(t)
	h := n.Handler(nil)
	if rec := post(h, "/feedback", "application/json", feedbackBody(t, pair, judgements(n, pair, 8))); rec.Code != http.StatusOK {
		t.Fatalf("POST /feedback = %d: %s", rec.Code, rec.Body)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/trace?format=json", nil))
	var dumps []obs.SpanDump
	if err := json.Unmarshal(rec.Body.Bytes(), &dumps); rec.Code != http.StatusOK || err != nil {
		t.Fatalf("GET /debug/trace = %d (%v): %s", rec.Code, err, rec.Body)
	}
	if !slices.ContainsFunc(dumps, func(d obs.SpanDump) bool { return strings.HasPrefix(d.Name, "episode-") }) {
		t.Errorf("GET /debug/trace lists no episode trace after a flushed /feedback: %s", rec.Body)
	}
}

// TestServedTraceHoldsThePlan serves a two-store federation and asks
// /debug/trace about a query whose first planned pattern matches nothing,
// so no pattern after it runs. The first top-level bgp span must still hold
// the whole plan: one step per planned pattern, in planned order, with the
// sources chosen for it and its exclusive mark.
func TestServedTraceHoldsThePlan(t *testing.T) {
	dict := rdf.NewDict()
	left, right := store.New("left", dict), store.New("right", dict)
	name, award := rdf.NewIRI("http://x/name"), rdf.NewIRI("http://x/award")
	left.Add(rdf.Triple{S: rdf.NewIRI("http://l/ann"), P: name, O: rdf.NewString("Ann")})
	left.Add(rdf.Triple{S: rdf.NewIRI("http://l/ann"), P: award, O: rdf.NewString("MVP")})
	right.Add(rdf.Triple{S: rdf.NewIRI("http://r/bob"), P: name, O: rdf.NewString("Bob")})
	right.Add(rdf.Triple{S: rdf.NewIRI("http://r/cy"), P: name, O: rdf.NewString("Cy")})
	n := New(fed.New(dict, left, right), nil, nil, Config{Cache: endpoint.DefaultCacheConfig()})

	// Written order puts the empty pattern last; the planner runs it first.
	query := `SELECT ?n WHERE { ?p <http://x/name> ?n . ?p <http://x/award> "none" }`
	rec := httptest.NewRecorder()
	n.Handler(nil).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/trace?format=json&query="+url.QueryEscape(query), nil))
	var root obs.SpanDump
	if err := json.Unmarshal(rec.Body.Bytes(), &root); rec.Code != http.StatusOK || err != nil {
		t.Fatalf("/debug/trace = %d (%v): %s", rec.Code, err, rec.Body)
	}
	want := []string{
		`?p <http://x/award> "none" . @ {left} [exclusive]`,
		`?p <http://x/name> ?n . @ {left,right}`,
	}
	var got []string
	for _, stage := range root.Children {
		if stage.Name != "bgp" {
			continue
		}
		for _, plan := range stage.Children {
			if plan.Name != "plan" {
				continue
			}
			for _, step := range plan.Children {
				line := step.Strs["tp"] + " @ {" + step.Strs["sources"] + "}"
				if step.Ints["exclusive"] == 1 {
					line += " [exclusive]"
				}
				got = append(got, line)
			}
			break
		}
		break
	}
	if !slices.Equal(got, want) {
		t.Errorf("first bgp span's plan = %q, want %q\ntrace: %s", got, want, rec.Body)
	}
}
