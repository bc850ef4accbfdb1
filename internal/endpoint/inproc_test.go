package endpoint

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"alex/internal/rdf"
	"alex/internal/store"
)

func newInprocServer(t *testing.T) *Server {
	t.Helper()
	st := store.New("inproc", rdf.NewDict())
	st.Add(rdf.Triple{
		S: rdf.NewIRI("http://ex/s"),
		P: rdf.NewIRI("http://ex/p"),
		O: rdf.NewString("o"),
	})
	srv := NewServer(NewHandler(st))
	if err := srv.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	return srv
}

func TestServerServesAndCounts(t *testing.T) {
	srv := newInprocServer(t)
	defer srv.Close()

	c := NewClient("inproc", srv.SparqlURL(), nil)
	res, err := c.QueryContext(context.Background(), `SELECT ?p ?o WHERE { <http://ex/s> ?p ?o }`)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(res.Rows))
	}
	if got := srv.Served(); got != 1 {
		t.Errorf("Served() = %d, want 1", got)
	}
	if got := srv.InFlight(); got != 0 {
		t.Errorf("InFlight() = %d, want 0", got)
	}
}

func TestServerInFlightDuringRequest(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	srv := NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		once.Do(func() { close(entered) })
		<-release
		fmt.Fprintln(w, "ok")
	}))
	if err := srv.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer srv.Close()

	errc := make(chan error, 1)
	go func() {
		resp, err := http.Get(srv.URL())
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	<-entered
	if got := srv.InFlight(); got != 1 {
		t.Errorf("InFlight() during request = %d, want 1", got)
	}
	close(release)
	if err := <-errc; err != nil {
		t.Fatalf("request: %v", err)
	}
}

func TestServerDrain(t *testing.T) {
	srv := newInprocServer(t)

	c := NewClient("inproc", srv.SparqlURL(), nil)
	if _, err := c.QueryContext(context.Background(), `ASK { <http://ex/s> <http://ex/p> ?o }`); err != nil {
		t.Fatalf("Query: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if got := srv.InFlight(); got != 0 {
		t.Errorf("InFlight() after drain = %d, want 0", got)
	}

	// New requests must be refused: either 503 from the draining guard or
	// a connection error once the listener is gone.
	resp, err := http.Get(srv.URL() + "/sparql?query=ASK%20%7B%7D")
	if err == nil {
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("post-drain status = %d, want %d or connection error",
				resp.StatusCode, http.StatusServiceUnavailable)
		}
	}
}
