package fed

import (
	"context"
	"errors"
	"testing"
	"time"

	"alex/internal/faultinject"
	"alex/internal/linkset"
	"alex/internal/obs"
	"alex/internal/rdf"
	"alex/internal/store"
)

// faultyFederation rebuilds the motivating two-source federation with each
// source wrapped in a fault injector, so tests can dial in error rates and
// outages per source.
func faultyFederation(t *testing.T, dbpCfg, nytCfg faultinject.Config) (*Federation, *faultinject.Source, *faultinject.Source) {
	t.Helper()
	dict := rdf.NewDict()
	dbpedia := store.New("dbpedia", dict)
	times := store.New("nytimes", dict)

	lebronDBP := rdf.NewIRI(dbp + "LeBron_James")
	lebronNYT := rdf.NewIRI(nyt + "lebron_james_per")
	dbpedia.Add(rdf.Triple{S: lebronDBP, P: rdf.NewIRI(dbo + "award"), O: rdf.NewString("NBA MVP 2013")})
	dbpedia.Add(rdf.Triple{S: rdf.NewIRI(dbp + "Kevin_Durant"), P: rdf.NewIRI(dbo + "award"), O: rdf.NewString("NBA MVP 2014")})
	times.Add(rdf.Triple{S: rdf.NewIRI(nyt + "article1"), P: rdf.NewIRI(nyo + "about"), O: lebronNYT})
	times.Add(rdf.Triple{S: rdf.NewIRI(nyt + "article2"), P: rdf.NewIRI(nyo + "about"), O: lebronNYT})

	f := New(dict)
	fiDBP := faultinject.Wrap(LocalSource(dbpedia), dbpCfg)
	fiNYT := faultinject.Wrap(LocalSource(times), nytCfg)
	f.AddSource(fiDBP)
	f.AddSource(fiNYT)
	ls := linkset.New()
	ls.Add(linkset.Link{Left: dict.Intern(lebronDBP), Right: dict.Intern(lebronNYT)})
	f.SetLinks(ls)
	return f, fiDBP, fiNYT
}

// motivatingQuery is shared with obs_test.go.

// fastRetries is a test policy: generous retry budget, microsecond
// backoff, no breaker, so flaky-but-up sources always come through.
func fastRetries() Resilience {
	return Resilience{
		Timeout:     time.Second,
		MaxRetries:  8,
		BackoffBase: time.Microsecond,
		BackoffMax:  10 * time.Microsecond,
		Jitter:      0.2,
		Seed:        42,
	}
}

// TestRetriesSurviveTransientErrors is the headline fault-injection claim:
// with 30% injected transient errors on every source call, every federated
// query still succeeds via retries, and the retry metrics record the work.
func TestRetriesSurviveTransientErrors(t *testing.T) {
	cfg := faultinject.Config{ErrorRate: 0.3, Seed: 7}
	f, fiDBP, fiNYT := faultyFederation(t, cfg, cfg)
	f.SetResilience(fastRetries())
	reg := obs.NewRegistry()
	f.SetObserver(reg)

	rounds := 50
	if testing.Short() {
		rounds = 10
	}
	for i := 0; i < rounds; i++ {
		res, err := f.ExecuteContext(context.Background(), motivatingQuery)
		if err != nil {
			t.Fatalf("round %d: query failed despite retries: %v", i, err)
		}
		if len(res.Answers) != 2 {
			t.Fatalf("round %d: answers = %d, want 2", i, len(res.Answers))
		}
		if res.Partial() {
			t.Fatalf("round %d: unexpected partial result: %v", i, res.Skipped)
		}
	}
	injected := fiDBP.Failures.Load() + fiNYT.Failures.Load()
	if injected == 0 {
		t.Fatal("fault injector never fired; test proves nothing")
	}
	snap := reg.Snapshot()
	if snap.Counters["fed.retries"] == 0 {
		t.Error("fed.retries = 0, want > 0")
	}
	if snap.Counters["fed.source_errors"] != injected {
		t.Errorf("fed.source_errors = %d, want %d (injected)", snap.Counters["fed.source_errors"], injected)
	}
	if snap.Counters["fed.retry_giveups"] != 0 {
		t.Errorf("fed.retry_giveups = %d, want 0", snap.Counters["fed.retry_giveups"])
	}
}

// TestBreakerTripsAndPartialResults: a hard-down source exhausts its retry
// budget, trips its breaker, is ejected from source selection, and the
// query completes with partial results flagged in the result, the trace
// and the metrics.
func TestBreakerTripsAndPartialResults(t *testing.T) {
	f, fiDBP, _ := faultyFederation(t, faultinject.Config{}, faultinject.Config{})
	r := fastRetries()
	r.MaxRetries = 1
	r.BreakerFailures = 2
	r.BreakerCooldown = time.Hour // no recovery during this test
	r.PartialResults = true
	f.SetResilience(r)
	reg := obs.NewRegistry()
	f.SetObserver(reg)
	fiDBP.SetDown(true)

	res, tr, err := executeTrace(f, motivatingQuery)
	if err != nil {
		t.Fatalf("partial-results query failed: %v", err)
	}
	if !res.Partial() {
		t.Fatal("result not flagged partial with a hard-down source")
	}
	if len(res.Skipped) != 1 || res.Skipped[0].Source != "dbpedia" {
		t.Fatalf("Skipped = %v, want [dbpedia]", res.Skipped)
	}
	// The join is empty without dbpedia, but the query must still finish.
	if len(res.Answers) != 0 {
		t.Fatalf("answers = %d, want 0 (join key source is down)", len(res.Answers))
	}
	if got, _ := tr.Root().Int("partial"); got != 1 {
		t.Error("trace root missing partial=1 annotation")
	}
	if got, _ := tr.Root().Str("skipped"); got != "dbpedia" {
		t.Errorf("trace skipped = %q, want dbpedia", got)
	}
	if st := f.BreakerState("dbpedia"); st != BreakerOpen {
		t.Errorf("dbpedia breaker state = %d, want open", st)
	}
	if st := f.BreakerState("nytimes"); st != BreakerClosed {
		t.Errorf("nytimes breaker state = %d, want closed", st)
	}

	// Second query: the open breaker must eject the source during source
	// selection, without a single call reaching the injector.
	calls0 := fiDBP.Calls.Load()
	res2, err := f.ExecuteContext(context.Background(), motivatingQuery)
	if err != nil {
		t.Fatalf("second query failed: %v", err)
	}
	if !res2.Partial() {
		t.Fatal("second result not flagged partial")
	}
	if got := fiDBP.Calls.Load(); got != calls0 {
		t.Errorf("open breaker admitted %d call(s) to the down source", got-calls0)
	}

	snap := reg.Snapshot()
	if snap.Counters["fed.breaker_opens"] != 1 {
		t.Errorf("fed.breaker_opens = %d, want 1", snap.Counters["fed.breaker_opens"])
	}
	if snap.Counters["fed.partial_queries"] != 2 {
		t.Errorf("fed.partial_queries = %d, want 2", snap.Counters["fed.partial_queries"])
	}
	if snap.Counters["fed.skipped_sources"] != 2 {
		t.Errorf("fed.skipped_sources = %d, want 2", snap.Counters["fed.skipped_sources"])
	}
	if snap.Gauges["fed.breaker.dbpedia.state"] != BreakerOpen {
		t.Errorf("breaker state gauge = %d, want %d", snap.Gauges["fed.breaker.dbpedia.state"], BreakerOpen)
	}
}

// TestBreakerRecoversThroughHalfOpen: after the source heals and the
// cooldown elapses, a trial call in half-open closes the breaker and full
// results come back.
func TestBreakerRecoversThroughHalfOpen(t *testing.T) {
	f, fiDBP, _ := faultyFederation(t, faultinject.Config{}, faultinject.Config{})
	r := fastRetries()
	r.MaxRetries = 0
	r.BreakerFailures = 1
	r.BreakerCooldown = 10 * time.Millisecond
	r.PartialResults = true
	f.SetResilience(r)

	fiDBP.SetDown(true)
	if _, err := f.ExecuteContext(context.Background(), motivatingQuery); err != nil {
		t.Fatal(err)
	}
	if st := f.BreakerState("dbpedia"); st != BreakerOpen {
		t.Fatalf("breaker state after outage = %d, want open", st)
	}

	// Heal the source and wait out the cooldown: the next admission check
	// moves the breaker to half-open, the trial call succeeds and closes it.
	fiDBP.SetDown(false)
	time.Sleep(15 * time.Millisecond)
	res, err := f.ExecuteContext(context.Background(), motivatingQuery)
	if err != nil {
		t.Fatal(err)
	}
	if res.Partial() {
		t.Fatalf("result still partial after recovery: %v", res.Skipped)
	}
	if len(res.Answers) != 2 {
		t.Fatalf("answers after recovery = %d, want 2", len(res.Answers))
	}
	if st := f.BreakerState("dbpedia"); st != BreakerClosed {
		t.Errorf("breaker state after recovery = %d, want closed", st)
	}
}

// TestHalfOpenFailureReopens: a failed trial call in half-open re-opens
// the breaker immediately.
func TestHalfOpenFailureReopens(t *testing.T) {
	f, fiDBP, _ := faultyFederation(t, faultinject.Config{}, faultinject.Config{})
	r := fastRetries()
	r.MaxRetries = 0
	r.BreakerFailures = 1
	r.BreakerCooldown = time.Millisecond
	r.PartialResults = true
	f.SetResilience(r)

	fiDBP.SetDown(true)
	if _, err := f.ExecuteContext(context.Background(), motivatingQuery); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond) // cooldown elapses, source still down
	if _, err := f.ExecuteContext(context.Background(), motivatingQuery); err != nil {
		t.Fatal(err)
	}
	if st := f.BreakerState("dbpedia"); st != BreakerOpen {
		t.Errorf("breaker state after failed half-open trial = %d, want open", st)
	}
}

// TestPerCallTimeout: a slow source breaches the per-call timeout and is
// skipped with the "timeout" reason.
func TestPerCallTimeout(t *testing.T) {
	f, _, _ := faultyFederation(t, faultinject.Config{Latency: 200 * time.Millisecond}, faultinject.Config{})
	r := Resilience{
		Timeout:        10 * time.Millisecond,
		PartialResults: true,
		Seed:           1,
	}
	f.SetResilience(r)
	res, err := f.ExecuteContext(context.Background(), motivatingQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial() {
		t.Fatal("slow source not skipped under per-call timeout")
	}
	if res.Skipped[0].Source != "dbpedia" || res.Skipped[0].Reason != "timeout" {
		t.Errorf("Skipped = %v, want dbpedia/timeout", res.Skipped)
	}
}

// TestNoPartialResultsFailsHard: without PartialResults, an unavailable
// source fails the whole query with a SourceUnavailableError.
func TestNoPartialResultsFailsHard(t *testing.T) {
	f, fiDBP, _ := faultyFederation(t, faultinject.Config{}, faultinject.Config{})
	r := fastRetries()
	r.MaxRetries = 1
	f.SetResilience(r)
	fiDBP.SetDown(true)
	_, err := f.ExecuteContext(context.Background(), motivatingQuery)
	var su *SourceUnavailableError
	if !errors.As(err, &su) {
		t.Fatalf("err = %v, want *SourceUnavailableError", err)
	}
	if su.Source != "dbpedia" {
		t.Errorf("unavailable source = %q, want dbpedia", su.Source)
	}
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Errorf("cause not preserved through wrapping: %v", err)
	}
}

// TestContextCancellationPropagates: cancelling the caller's context aborts
// evaluation instead of retrying through it.
func TestContextCancellationPropagates(t *testing.T) {
	f, _ := motivatingFederation(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := f.ExecuteContext(ctx, motivatingQuery); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestQueryDeadlineBoundsSlowSource: a whole-query deadline cuts through a
// slow source even with no per-call timeout configured.
func TestQueryDeadlineBoundsSlowSource(t *testing.T) {
	f, _, _ := faultyFederation(t, faultinject.Config{Latency: time.Second}, faultinject.Config{})
	f.SetResilience(Resilience{MaxRetries: 0, Seed: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	_, err := f.ExecuteContext(ctx, motivatingQuery)
	if err == nil {
		t.Fatal("query succeeded despite deadline shorter than source latency")
	}
	if took := time.Since(t0); took > 500*time.Millisecond {
		t.Errorf("deadline not enforced: query took %v", took)
	}
}

// TestResilienceDisabledPassthrough: the zero policy leaves behavior
// untouched — errors surface raw and no breakers exist.
func TestResilienceDisabledPassthrough(t *testing.T) {
	f, fiDBP, _ := faultyFederation(t, faultinject.Config{}, faultinject.Config{})
	fiDBP.SetDown(true)
	_, err := f.ExecuteContext(context.Background(), motivatingQuery)
	if err == nil {
		t.Fatal("want raw error with resilience disabled")
	}
	var su *SourceUnavailableError
	if errors.As(err, &su) {
		t.Errorf("raw error got wrapped without resilience: %v", err)
	}
	if st := f.BreakerState("dbpedia"); st != BreakerClosed {
		t.Errorf("breaker exists without resilience: state %d", st)
	}
}

// TestBackoffShape: backoff grows exponentially, respects the cap, and
// jitter stays within the configured fraction.
func TestBackoffShape(t *testing.T) {
	f, _ := motivatingFederation(t)
	f.SetResilience(Resilience{
		MaxRetries:  5,
		BackoffBase: 10 * time.Millisecond,
		BackoffMax:  40 * time.Millisecond,
		Jitter:      0.5,
		Seed:        99,
	})
	want := []time.Duration{10, 20, 40, 40, 40} // ms, pre-jitter
	for attempt, base := range want {
		base *= time.Millisecond
		lo := time.Duration(float64(base) * 0.5)
		hi := time.Duration(float64(base) * 1.5)
		for i := 0; i < 20; i++ {
			d := f.backoff(attempt)
			if d < lo || d > hi {
				t.Fatalf("backoff(%d) = %v, want in [%v, %v]", attempt, d, lo, hi)
			}
		}
	}
}

// TestBackoffDeterministicSeed: the same seed yields the same jitter
// sequence.
func TestBackoffDeterministicSeed(t *testing.T) {
	mk := func() []time.Duration {
		f, _ := motivatingFederation(t)
		f.SetResilience(Resilience{MaxRetries: 3, BackoffBase: time.Millisecond, Jitter: 1, Seed: 7})
		var out []time.Duration
		for i := 0; i < 10; i++ {
			out = append(out, f.backoff(i%3))
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seeded backoff diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestSourceSkippedOnceStaysSkipped: after a source is skipped it is not
// re-contacted for later patterns of the same query, but a fresh query
// tries it again (breaker permitting).
func TestSourceSkippedOnceStaysSkipped(t *testing.T) {
	f, fiDBP, _ := faultyFederation(t, faultinject.Config{}, faultinject.Config{})
	r := fastRetries()
	r.MaxRetries = 0
	r.PartialResults = true
	f.SetResilience(r)
	fiDBP.SetDown(true)

	if _, err := f.ExecuteContext(context.Background(), motivatingQuery); err != nil {
		t.Fatal(err)
	}
	calls := fiDBP.Calls.Load()
	// No breaker configured: a new query probes the source again.
	if _, err := f.ExecuteContext(context.Background(), motivatingQuery); err != nil {
		t.Fatal(err)
	}
	if got := fiDBP.Calls.Load(); got <= calls {
		t.Error("fresh query never re-tried the skipped source (no breaker configured)")
	}
}

// TestParallelBoundJoinUnderFaults: the retry/degrade path is exercised by
// concurrent bound-join workers without data races (run under -race in CI)
// and still produces correct, complete answers.
func TestParallelBoundJoinUnderFaults(t *testing.T) {
	cfg := faultinject.Config{ErrorRate: 0.3, Seed: 11}
	f, _, _ := faultyFederation(t, cfg, cfg)
	f.SetParallelism(4)
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
}

// TestSoakMixedFaults is the soak-style run: many rounds against one flaky
// and one healthy source with an outage window in the middle; every query
// must either fully succeed or be flagged partial, never fail.
func TestSoakMixedFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	f, fiDBP, _ := faultyFederation(t,
		faultinject.Config{ErrorRate: 0.2, Seed: 3},
		faultinject.Config{})
	r := fastRetries()
	r.MaxRetries = 6
	r.BreakerFailures = 8
	r.BreakerCooldown = 5 * time.Millisecond
	r.PartialResults = true
	f.SetResilience(r)

	partials := 0
	for i := 0; i < 300; i++ {
		if i == 100 {
			fiDBP.SetDown(true)
		}
		if i == 200 {
			fiDBP.SetDown(false)
			time.Sleep(10 * time.Millisecond) // let the cooldown elapse
		}
		res, err := f.ExecuteContext(context.Background(), motivatingQuery)
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		if res.Partial() {
			partials++
			continue
		}
		if len(res.Answers) != 2 {
			t.Fatalf("round %d: complete result with %d answers, want 2", i, len(res.Answers))
		}
	}
	if partials < 100 {
		t.Errorf("partials = %d, want >= 100 (outage window)", partials)
	}
	if partials > 210 {
		t.Errorf("partials = %d: breaker failed to recover after heal", partials)
	}
	if st := f.BreakerState("dbpedia"); st != BreakerClosed {
		t.Errorf("final breaker state = %d, want closed", st)
	}
}
