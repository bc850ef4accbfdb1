package faultinject

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"alex/internal/rdf"
	"alex/internal/sparql"
)

// stubTarget is a minimal healthy Target.
type stubTarget struct{}

func (stubTarget) Name() string { return "stub" }
func (stubTarget) HasPredicate(context.Context, rdf.Term) (bool, error) {
	return true, nil
}
func (stubTarget) PredicateCount(context.Context, rdf.Term) (int, error) { return 3, nil }
func (stubTarget) Size(context.Context) (int, error)                     { return 9, nil }
func (stubTarget) Match(_ context.Context, _ *sparql.IDSpace, s, p, o rdf.TermID, dst []rdf.TripleID) ([]rdf.TripleID, error) {
	return append(dst, rdf.TripleID{S: s, P: p, O: o}), nil
}

func TestZeroConfigPassesThrough(t *testing.T) {
	s := Wrap(stubTarget{}, Config{})
	ctx := context.Background()
	if ok, err := s.HasPredicate(ctx, rdf.NewIRI("http://p")); err != nil || !ok {
		t.Fatalf("HasPredicate = %v, %v", ok, err)
	}
	if n, err := s.Size(ctx); err != nil || n != 9 {
		t.Fatalf("Size = %d, %v", n, err)
	}
	if s.Failures.Load() != 0 {
		t.Errorf("failures = %d, want 0", s.Failures.Load())
	}
	if s.Calls.Load() != 2 {
		t.Errorf("calls = %d, want 2", s.Calls.Load())
	}
}

func TestErrorRateIsDeterministicPerSeed(t *testing.T) {
	run := func() []bool {
		s := Wrap(stubTarget{}, Config{ErrorRate: 0.5, Seed: 42})
		out := make([]bool, 40)
		for i := range out {
			_, err := s.Size(context.Background())
			out[i] = err != nil
		}
		return out
	}
	a, b := run(), run()
	sawErr, sawOK := false, false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at call %d", i)
		}
		sawErr = sawErr || a[i]
		sawOK = sawOK || !a[i]
	}
	if !sawErr || !sawOK {
		t.Errorf("0.5 error rate produced no mix: errors=%v successes=%v", sawErr, sawOK)
	}
}

func TestInjectedErrorsAreMarked(t *testing.T) {
	s := Wrap(stubTarget{}, Config{ErrorRate: 1, Seed: 1})
	_, err := s.Match(context.Background(), nil, 0, 0, 0, nil)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if s.Failures.Load() != 1 {
		t.Errorf("failures = %d, want 1", s.Failures.Load())
	}
}

func TestHardOutageAndRecovery(t *testing.T) {
	s := Wrap(stubTarget{}, Config{})
	s.SetDown(true)
	if _, err := s.Size(context.Background()); !errors.Is(err, ErrInjected) {
		t.Fatalf("down source err = %v, want ErrInjected", err)
	}
	if !s.Down() {
		t.Error("Down() = false while down")
	}
	s.SetDown(false)
	if _, err := s.Size(context.Background()); err != nil {
		t.Fatalf("healed source err = %v", err)
	}
}

func TestLatencyRespectsContext(t *testing.T) {
	s := Wrap(stubTarget{}, Config{Latency: time.Second})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	_, err := s.Size(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if took := time.Since(t0); took > 500*time.Millisecond {
		t.Errorf("latency ignored ctx: took %v", took)
	}
}

func TestRoundTripperInjectsBelow(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	rt := WrapTransport(nil, Config{})
	client := &http.Client{Transport: rt}
	resp, err := client.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	rt.SetDown(true)
	if _, err := client.Get(srv.URL); err == nil {
		t.Fatal("down transport let a request through")
	}
	if rt.Failures.Load() != 1 {
		t.Errorf("failures = %d, want 1", rt.Failures.Load())
	}

	always := WrapTransport(nil, Config{ErrorRate: 1, Seed: 5})
	if _, err := (&http.Client{Transport: always}).Get(srv.URL); !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected cause", err)
	}
}
