package fed

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"

	"alex/internal/endpoint"
	"alex/internal/faultinject"
	"alex/internal/linkset"
	"alex/internal/rdf"
	"alex/internal/store"
)

// remoteFederation rebuilds the motivating example with the NYTimes data
// set behind an HTTP SPARQL endpoint instead of in-process: the true
// distributed setting of the paper's Figure 1.
func remoteFederation(t *testing.T) (*Federation, linkset.Link) {
	t.Helper()
	dict := rdf.NewDict()
	dbpedia := store.New("dbpedia", dict)
	lebronDBP := rdf.NewIRI(dbp + "LeBron_James")
	lebronNYT := rdf.NewIRI(nyt + "lebron_james_per")
	dbpedia.Add(rdf.Triple{S: lebronDBP, P: rdf.NewIRI(dbo + "award"), O: rdf.NewString("NBA MVP 2013")})

	// The NYTimes side lives behind HTTP. Note it has its own dictionary:
	// nothing is shared with the local federation except IRI strings.
	times := store.New("nytimes", rdf.NewDict())
	times.Add(rdf.Triple{S: rdf.NewIRI(nyt + "article1"), P: rdf.NewIRI(nyo + "about"), O: lebronNYT})
	times.Add(rdf.Triple{S: rdf.NewIRI(nyt + "article2"), P: rdf.NewIRI(nyo + "about"), O: lebronNYT})
	srv := httptest.NewServer(endpoint.NewHandler(times))
	t.Cleanup(srv.Close)

	f := New(dict, dbpedia)
	f.AddSource(RemoteSource(endpoint.NewClient("nytimes-remote", srv.URL+"/sparql", srv.Client())))

	link := linkset.Link{Left: dict.Intern(lebronDBP), Right: dict.Intern(lebronNYT)}
	f.SetLinks(linkset.FromLinks([]linkset.Link{link}))
	return f, link
}

func TestRemoteFederatedJoin(t *testing.T) {
	f, link := remoteFederation(t)
	res, err := f.ExecuteContext(context.Background(), `SELECT ?article WHERE {
		?player <`+dbo+`award> "NBA MVP 2013" .
		?article <`+nyo+`about> ?player .
	} ORDER BY ?article`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 2 {
		t.Fatalf("answers = %v", res.Answers)
	}
	for _, a := range res.Answers {
		if len(a.Used) != 1 || a.Used[0] != link {
			t.Errorf("remote answer provenance = %v", a.Used)
		}
	}
	if res.Answers[0].Binding["article"].Value != nyt+"article1" {
		t.Errorf("answer 0 = %v", res.Answers[0].Binding)
	}
}

func TestRemoteSourceSelection(t *testing.T) {
	f, _ := remoteFederation(t)
	plan := tracedPlan(t, f, `SELECT ?a WHERE { ?a <`+nyo+`about> ?p }`)
	if len(plan) != 1 {
		t.Fatalf("plan = %v", plan)
	}
	// The ASK probe must route the pattern to the remote endpoint only.
	if want := "nytimes-remote"; !contains(plan[0], want) {
		t.Errorf("plan = %v, want source %s", plan, want)
	}
	if contains(plan[0], "{dbpedia}") {
		t.Errorf("local store incorrectly selected: %v", plan)
	}
}

func TestRemoteFederatedAggregate(t *testing.T) {
	f, _ := remoteFederation(t)
	res, err := f.ExecuteContext(context.Background(), `SELECT (COUNT(?article) AS ?n) WHERE {
		?player <`+dbo+`award> "NBA MVP 2013" .
		?article <`+nyo+`about> ?player .
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 1 || res.Answers[0].Binding["n"].Value != "2" {
		t.Errorf("remote aggregate = %v", res.Answers)
	}
}

func TestRemoteEndpointDownSurfacesError(t *testing.T) {
	dict := rdf.NewDict()
	local := store.New("local", dict)
	local.Add(rdf.Triple{S: rdf.NewIRI("http://x/s"), P: rdf.NewIRI("http://x/p"), O: rdf.NewString("v")})
	f := New(dict, local)
	f.AddSource(RemoteSource(endpoint.NewClient("dead", "http://127.0.0.1:1/sparql", nil)))
	// Patterns with a variable predicate are routed to every source,
	// including the dead one; the error must surface, not be swallowed.
	if _, err := f.ExecuteContext(context.Background(), `SELECT ?s WHERE { ?s ?p ?o }`); err == nil {
		t.Error("dead endpoint error swallowed")
	}
}

// TestRemoteRequestBudget counts the HTTP requests each query sends to the
// remote fixture, in order on one federation, so later queries find the
// client's caches warm. The budgets are what the federation sent when its
// planner probed with ASK, predicate COUNT and size COUNT: a change to the
// probes may lower them, never raise them.
func TestRemoteRequestBudget(t *testing.T) {
	f, rt := faultyRemoteFederation(t, faultinject.Config{})
	for _, c := range []struct {
		query  string
		budget int64
	}{
		{motivatingQuery, 5},
		{motivatingQuery, 2},
		{`SELECT ?article WHERE { ?article <` + nyo + `about> <` + dbp + `LeBron_James> }`, 2},
		{`ASK { ?s ?p ?o }`, 2},
		{`SELECT ?s ?p ?o WHERE { ?s ?p ?o }`, 1},
	} {
		before := rt.Calls.Load()
		if _, err := f.ExecuteContext(context.Background(), c.query); err != nil {
			t.Fatal(err)
		}
		if sent := rt.Calls.Load() - before; sent > c.budget {
			t.Errorf("%s: %d requests, budget %d", c.query, sent, c.budget)
		}
	}
}

// TestRemoteBoundMatchSeesNewTriples: a fully bound pattern sent to a
// remote source is answered by the endpoint each time, so a triple it gains
// is found by the next query. (The predicate is one the endpoint already
// had; a predicate counted 0 is selected again after the endpoint's next
// reply, TestRemoteZeroCountRefreshes.)
func TestRemoteBoundMatchSeesNewTriples(t *testing.T) {
	remoteStore := store.New("remote", rdf.NewDict())
	a, p := rdf.NewIRI("http://x/a"), rdf.NewIRI("http://x/p")
	remoteStore.Add(rdf.Triple{S: a, P: p, O: rdf.NewIRI("http://x/c")})
	srv := httptest.NewServer(endpoint.NewHandler(remoteStore))
	t.Cleanup(srv.Close)
	f := New(rdf.NewDict())
	f.AddSource(RemoteSource(endpoint.NewClient("remote", srv.URL+"/sparql", srv.Client())))
	ask := `ASK { <http://x/a> <http://x/p> <http://x/b> }`
	for _, want := range []bool{false, true} {
		res, err := f.ExecuteContext(context.Background(), ask)
		if err != nil {
			t.Fatal(err)
		}
		if res.AskResult() != want {
			t.Errorf("ASK = %v, want %v", res.AskResult(), want)
		}
		remoteStore.Add(rdf.Triple{S: a, P: p, O: rdf.NewIRI("http://x/b")})
	}
}

func contains(haystack, needle string) bool {
	return strings.Contains(haystack, needle)
}

// TestHierarchicalFederation serves a two-store federation as an endpoint
// and queries it from a second-level federation: a federator of federators.
func TestHierarchicalFederation(t *testing.T) {
	// Level 0: the motivating federation served over HTTP.
	inner, _ := motivatingFederation(t)
	srv := httptest.NewServer(endpoint.NewQueryHandler(CachedEndpointQueryFunc(inner, nil), nil))
	t.Cleanup(srv.Close)

	// Level 1: a fresh federation whose only source is the inner one.
	outer := New(rdf.NewDict())
	outer.AddSource(RemoteSource(endpoint.NewClient("inner-fed", srv.URL+"/sparql", srv.Client())))

	res, err := outer.ExecuteContext(context.Background(), `SELECT ?article WHERE {
		?player <`+dbo+`award> "NBA MVP 2013" .
		?article <`+nyo+`about> ?player .
	} ORDER BY ?article`)
	if err != nil {
		t.Fatal(err)
	}
	// The inner federation does the sameAs bridging; the outer one just
	// forwards patterns.
	if len(res.Answers) != 2 {
		t.Fatalf("hierarchical answers = %v", res.Answers)
	}
}

func TestParallelBoundJoins(t *testing.T) {
	f, _ := remoteFederation(t)
	f.SetParallelism(4)
	res, err := f.ExecuteContext(context.Background(), `SELECT ?article WHERE {
		?player <`+dbo+`award> "NBA MVP 2013" .
		?article <`+nyo+`about> ?player .
	} ORDER BY ?article`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 2 {
		t.Fatalf("parallel answers = %v", res.Answers)
	}
	// Determinism: results equal the serial run.
	f.SetParallelism(1)
	serial, err := f.ExecuteContext(context.Background(), `SELECT ?article WHERE {
		?player <`+dbo+`award> "NBA MVP 2013" .
		?article <`+nyo+`about> ?player .
	} ORDER BY ?article`)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Answers) != len(res.Answers) {
		t.Fatalf("serial %d vs parallel %d", len(serial.Answers), len(res.Answers))
	}
	for i := range serial.Answers {
		if serial.Answers[i].Binding["article"] != res.Answers[i].Binding["article"] {
			t.Errorf("row %d differs", i)
		}
	}
	// Invalid worker counts coerce to 1.
	f.SetParallelism(-3)
	if _, err := f.ExecuteContext(context.Background(), `ASK { ?s ?p ?o }`); err != nil {
		t.Fatal(err)
	}
}
