// Package faultinject is a test harness for the federation's
// fault-tolerance layer: wrappers that inject configurable latency, error
// rates, per-call timeouts and hard outages into a federation source or an
// HTTP round trip, with a deterministic seeded RNG so failure sequences
// are reproducible. It lives in internal/ because production code must
// never depend on it, but it is a real package (not _test.go) so fed,
// endpoint and cmd tests can all share it.
//
// Source wraps anything with the fed.Source method set (the interface is
// restated structurally here to avoid an import cycle with fed's own
// tests). RoundTripper wraps an http.RoundTripper, injecting the same
// fault model below the endpoint client.
package faultinject

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"alex/internal/rdf"
	"alex/internal/sparql"
)

// ErrInjected is the transient error produced by the error-rate and
// outage injectors, wrapped with the call's description.
var ErrInjected = errors.New("injected fault")

// Config is one source's fault model. The zero value injects nothing.
type Config struct {
	// ErrorRate is the probability (0..1) that a call fails with an
	// injected transient error.
	ErrorRate float64
	// Latency delays every call before it runs (after the outage and
	// error-rate checks), exercising per-call timeouts.
	Latency time.Duration
	// Seed makes the error-rate draw deterministic. Zero seeds from 1.
	Seed int64
}

// Target is the method set a federation source exposes — structurally
// identical to fed.Source, restated here so the package depends only on
// rdf and sparql.
type Target interface {
	Name() string
	Count(ctx context.Context, ids *sparql.IDSpace, gen uint64, s, p, o rdf.TermID) (float64, error)
	Match(ctx context.Context, ids *sparql.IDSpace, gen uint64, s, p, o rdf.TermID, dst []rdf.TripleID) ([]rdf.TripleID, error)
	Generation() uint64
}

// Source wraps a Target, injecting faults per its Config. It satisfies
// fed.Source structurally. Safe for concurrent use.
type Source struct {
	inner Target
	cfg   Config

	mu  sync.Mutex
	rng *rand.Rand

	down atomic.Bool

	// Calls counts every injected-path invocation (including failed ones);
	// Failures counts the calls that returned an injected error. Both are
	// cumulative and safe to read concurrently.
	Calls    atomic.Int64
	Failures atomic.Int64
}

// Wrap returns a fault-injecting wrapper around target.
func Wrap(target Target, cfg Config) *Source {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	return &Source{inner: target, cfg: cfg, rng: rand.New(rand.NewSource(seed))}
}

// SetDown switches the hard-outage flag: while down, every call fails
// immediately regardless of ErrorRate.
func (s *Source) SetDown(down bool) { s.down.Store(down) }

// Generation is the target's: faults do not change the data.
func (s *Source) Generation() uint64 { return s.inner.Generation() }

// Down reports the hard-outage flag.
func (s *Source) Down() bool { return s.down.Load() }

// inject runs the fault model for one call and returns the injected error,
// if any. ctx is consulted during the latency sleep so per-call timeouts
// fire realistically.
func (s *Source) inject(ctx context.Context, op string) error {
	s.Calls.Add(1)
	if s.down.Load() {
		s.Failures.Add(1)
		return fmt.Errorf("%s %s: source down: %w", s.inner.Name(), op, ErrInjected)
	}
	if s.cfg.ErrorRate > 0 {
		s.mu.Lock()
		fail := s.rng.Float64() < s.cfg.ErrorRate
		s.mu.Unlock()
		if fail {
			s.Failures.Add(1)
			return fmt.Errorf("%s %s: transient: %w", s.inner.Name(), op, ErrInjected)
		}
	}
	if s.cfg.Latency > 0 {
		select {
		case <-time.After(s.cfg.Latency):
		case <-ctx.Done():
			s.Failures.Add(1)
			return ctx.Err()
		}
	}
	return nil
}

func (s *Source) Name() string { return s.inner.Name() }

func (s *Source) Count(ctx context.Context, ids *sparql.IDSpace, gen uint64, sub, pred, obj rdf.TermID) (float64, error) {
	if err := s.inject(ctx, "count"); err != nil {
		return 0, err
	}
	return s.inner.Count(ctx, ids, gen, sub, pred, obj)
}

func (s *Source) Match(ctx context.Context, ids *sparql.IDSpace, gen uint64, sub, pred, obj rdf.TermID, dst []rdf.TripleID) ([]rdf.TripleID, error) {
	if err := s.inject(ctx, "match"); err != nil {
		return dst, err
	}
	return s.inner.Match(ctx, ids, gen, sub, pred, obj, dst)
}

// RoundTripper wraps an http.RoundTripper with the same fault model, for
// injecting failures below an endpoint.Client: errors become transport
// errors, latency delays the round trip, SetDown hard-fails every request.
type RoundTripper struct {
	inner http.RoundTripper
	cfg   Config

	mu  sync.Mutex
	rng *rand.Rand

	down atomic.Bool

	Calls    atomic.Int64
	Failures atomic.Int64
}

// WrapTransport returns a fault-injecting RoundTripper around inner (nil
// means http.DefaultTransport).
func WrapTransport(inner http.RoundTripper, cfg Config) *RoundTripper {
	if inner == nil {
		inner = http.DefaultTransport
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	return &RoundTripper{inner: inner, cfg: cfg, rng: rand.New(rand.NewSource(seed))}
}

// SetDown switches the hard-outage flag for the transport.
func (rt *RoundTripper) SetDown(down bool) { rt.down.Store(down) }

// RoundTrip implements http.RoundTripper.
func (rt *RoundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	rt.Calls.Add(1)
	if rt.down.Load() {
		rt.Failures.Add(1)
		return nil, fmt.Errorf("%s: endpoint down: %w", req.URL.Host, ErrInjected)
	}
	if rt.cfg.ErrorRate > 0 {
		rt.mu.Lock()
		fail := rt.rng.Float64() < rt.cfg.ErrorRate
		rt.mu.Unlock()
		if fail {
			rt.Failures.Add(1)
			return nil, fmt.Errorf("%s: transient: %w", req.URL.Host, ErrInjected)
		}
	}
	if rt.cfg.Latency > 0 {
		select {
		case <-time.After(rt.cfg.Latency):
		case <-req.Context().Done():
			rt.Failures.Add(1)
			return nil, req.Context().Err()
		}
	}
	return rt.inner.RoundTrip(req)
}
