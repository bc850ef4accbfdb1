package fed

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"alex/internal/endpoint"
	"alex/internal/faultinject"
	"alex/internal/linkset"
	"alex/internal/rdf"
	"alex/internal/store"
)

// faultyRemoteFederation is remoteFederation with the HTTP transport to
// the NYTimes endpoint wrapped in a fault injector: failures happen on the
// wire, below endpoint.Client, the way real endpoint flakiness does.
func faultyRemoteFederation(t *testing.T, cfg faultinject.Config) (*Federation, *faultinject.RoundTripper) {
	t.Helper()
	dict := rdf.NewDict()
	dbpedia := store.New("dbpedia", dict)
	lebronDBP := rdf.NewIRI(dbp + "LeBron_James")
	lebronNYT := rdf.NewIRI(nyt + "lebron_james_per")
	dbpedia.Add(rdf.Triple{S: lebronDBP, P: rdf.NewIRI(dbo + "award"), O: rdf.NewString("NBA MVP 2013")})

	times := store.New("nytimes", rdf.NewDict())
	times.Add(rdf.Triple{S: rdf.NewIRI(nyt + "article1"), P: rdf.NewIRI(nyo + "about"), O: lebronNYT})
	times.Add(rdf.Triple{S: rdf.NewIRI(nyt + "article2"), P: rdf.NewIRI(nyo + "about"), O: lebronNYT})
	srv := httptest.NewServer(endpoint.NewHandler(times))
	t.Cleanup(srv.Close)

	rt := faultinject.WrapTransport(srv.Client().Transport, cfg)
	client := &http.Client{Transport: rt}
	f := New(dict, dbpedia)
	f.AddSource(RemoteSource(endpoint.NewClient("nytimes-remote", srv.URL+"/sparql", client)))

	ls := linkset.New()
	ls.Add(linkset.Link{Left: dict.Intern(lebronDBP), Right: dict.Intern(lebronNYT)})
	f.SetLinks(ls)
	return f, rt
}

// TestRemoteRetriesOverFaultyTransport: 30% of HTTP round trips fail at
// the transport; retries above endpoint.Client still complete every query.
func TestRemoteRetriesOverFaultyTransport(t *testing.T) {
	f, rt := faultyRemoteFederation(t, faultinject.Config{ErrorRate: 0.3, Seed: 13})
	f.SetResilience(fastRetries())
	rounds := 20
	if testing.Short() {
		rounds = 5
	}
	for i := 0; i < rounds; i++ {
		res, err := f.ExecuteContext(context.Background(), motivatingQuery)
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		if len(res.Answers) != 2 {
			t.Fatalf("round %d: answers = %d, want 2", i, len(res.Answers))
		}
	}
	if rt.Failures.Load() == 0 {
		t.Fatal("transport injector never fired")
	}
}

// TestRemoteOutagePartialResults: a hard transport outage on the remote
// endpoint degrades to partial results and trips its breaker.
func TestRemoteOutagePartialResults(t *testing.T) {
	f, rt := faultyRemoteFederation(t, faultinject.Config{})
	r := fastRetries()
	r.MaxRetries = 1
	r.BreakerFailures = 2
	r.BreakerCooldown = time.Hour
	r.PartialResults = true
	f.SetResilience(r)
	rt.SetDown(true)

	res, err := f.ExecuteContext(context.Background(), motivatingQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial() || res.Skipped[0].Source != "nytimes-remote" {
		t.Fatalf("Skipped = %v, want [nytimes-remote]", res.Skipped)
	}
	if st := f.BreakerState("nytimes-remote"); st != BreakerOpen {
		t.Errorf("remote breaker state = %d, want open", st)
	}
}
