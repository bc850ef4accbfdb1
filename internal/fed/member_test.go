package fed

import (
	"context"
	"errors"
	"strconv"
	"sync"
	"testing"
	"time"

	"alex/internal/faultinject"
	"alex/internal/obs"
	"alex/internal/rdf"
	"alex/internal/sparql"
	"alex/internal/store"
)

// The tests in this file pin what a member resolves once per source: which
// calls are timed, what a healthy in-process probe costs, that the wiring
// does not depend on the order of AddSource, SetResilience and SetObserver,
// and whose failure a failed call is.

// recordingSource is a source that can wait, as far as the federation
// knows: it notes, per method, the time each call's context left it.
type recordingSource struct {
	Source

	mu sync.Mutex
	// left[method] holds one entry per call: the time to the context's
	// deadline, or -1 when the context had none.
	left map[string][]time.Duration
}

func newRecordingSource(inner Source) *recordingSource {
	return &recordingSource{Source: inner, left: map[string][]time.Duration{}}
}

func (s *recordingSource) note(ctx context.Context, method string) {
	left := time.Duration(-1)
	if d, ok := ctx.Deadline(); ok {
		left = time.Until(d)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.left[method] = append(s.left[method], left)
}

func (s *recordingSource) Count(ctx context.Context, ids *sparql.IDSpace, gen uint64, sub, pred, obj rdf.TermID) (float64, error) {
	s.note(ctx, "Count")
	return s.Source.Count(ctx, ids, gen, sub, pred, obj)
}

func (s *recordingSource) Match(ctx context.Context, ids *sparql.IDSpace, gen uint64, sub, pred, obj rdf.TermID, dst []rdf.TripleID) ([]rdf.TripleID, error) {
	s.note(ctx, "Match")
	return s.Source.Match(ctx, ids, gen, sub, pred, obj, dst)
}

// recordedFederation is the motivating federation with dbpedia in process
// (built by New) and nytimes handed to AddSource behind a recorder.
func recordedFederation(t *testing.T) (*Federation, *recordingSource) {
	t.Helper()
	whole, _ := motivatingFederation(t)
	f := New(whole.Dict(), storeOf(whole, 0))
	rec := newRecordingSource(LocalSource(storeOf(whole, 1)))
	f.AddSource(rec)
	f.SetLinks(whole.Links())
	return f, rec
}

// TestAddedSourceIsTimedPerCall: a source handed to AddSource is one that
// can wait, so every call to it — bound-join matches and the planner's
// Count probes alike — runs under Resilience.Timeout, and under no deadline
// at all when the policy has none. The in-process member beside it is never
// timed; TestHealthyLocalProbeAllocatesNothing shows that.
func TestAddedSourceIsTimedPerCall(t *testing.T) {
	for _, timeout := range []time.Duration{time.Minute, 0} {
		f, rec := recordedFederation(t)
		r := DefaultResilience()
		r.Timeout = timeout
		f.SetResilience(r)
		if _, err := f.ExecuteContext(context.Background(), motivatingQuery); err != nil {
			t.Fatal(err)
		}
		for _, method := range []string{"Match", "Count"} {
			calls := rec.left[method]
			if len(calls) == 0 {
				t.Errorf("timeout %v: %s never called; the test proves nothing", timeout, method)
			}
			for _, left := range calls {
				if timeout == 0 && left != -1 {
					t.Errorf("timeout 0: %s saw a deadline %v away", method, left)
				}
				if timeout > 0 && (left <= timeout-10*time.Second || left > timeout) {
					t.Errorf("timeout %v: %s saw %v to its deadline", timeout, method, left)
				}
			}
		}
		if got := f.sources[0].timeout; got != 0 {
			t.Errorf("timeout %v: in-process member is timed (%v)", timeout, got)
		}
	}
}

// storeOf returns the in-process store behind member i.
func storeOf(f *Federation, i int) *store.Store { return f.sources[i].src.(localSource).st }

// probeSolver hands the arguments of the evaluation's first SolveBGP call
// to probe: a layout and an id space cannot be built outside the engine.
type probeSolver struct {
	*evalState
	probe func(lay *sparql.SlotLayout, ids *sparql.IDSpace, bgp sparql.BGP, in *sparql.Rows)
}

func (p *probeSolver) SolveBGP(ctx context.Context, lay *sparql.SlotLayout, ids *sparql.IDSpace, bgp sparql.BGP, in *sparql.Rows, sp *obs.Span) (*sparql.Rows, error) {
	if p.probe != nil {
		p.probe(lay, ids, bgp, in)
		p.probe = nil
	}
	return p.evalState.SolveBGP(ctx, lay, ids, bgp, in, sp)
}

// TestHealthyLocalProbeAllocatesNothing is the invariant the members exist
// for: under the default policy with no observer, probing healthy
// in-process sources — per source one base match (nytimes answers it with
// two rows) and one sameAs rewrite that finds nothing, and the planner's
// Count of the pattern — arms no timer, takes no lock and looks nothing up
// by name, so it allocates nothing.
func TestHealthyLocalProbeAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	f, _ := motivatingFederation(t)
	f.SetResilience(DefaultResilience())
	q, err := sparql.Parse(`SELECT ?article WHERE { ?article <` + nyo + `about> <` + nyt + `lebron_james_per> }`)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 100
	probed := false
	ctx, es := context.Background(), f.newEvalState()
	_, err = sparql.Compile(q).Eval(ctx, &probeSolver{evalState: es, probe: func(lay *sparql.SlotLayout, ids *sparql.IDSpace, bgp sparql.BGP, in *sparql.Rows) {
		probed = true
		c := lay.Compile(ids, bgp.Triples[0])
		out := sparql.NewRows(in.Width(), 2*(runs+1))
		buf := make([]rdf.TripleID, 0, 8)
		allocs := testing.AllocsPerRun(runs, func() {
			var err error
			if buf, err = es.matchAcross(ctx, c, f.sources, ids, in.Row(0), out, buf, nil); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("one healthy probe of two in-process sources allocates %v times, want 0", allocs)
		}
		sub, pred, obj := c.Query(in.Row(0))
		allocs = testing.AllocsPerRun(runs, func() {
			for _, m := range f.sources {
				if _, err := f.count(ctx, es, m, ids, sub, pred, obj); err != nil {
					t.Fatal(err)
				}
			}
		})
		if allocs != 0 {
			t.Errorf("one healthy Count of two in-process sources allocates %v times, want 0", allocs)
		}
		if out.Len() != 2*(runs+1) {
			t.Errorf("probes produced %d rows, want %d: the base match no longer answers", out.Len(), 2*(runs+1))
		}
	}}, sparql.EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !probed {
		t.Fatal("SolveBGP never called")
	}
}

// TestPairProbeAllocatesNothing: a pattern with a link at each end is
// answered by the pair probe, which walks the two alias runs in place; once
// the row's provenance set is interned, it allocates nothing either.
func TestPairProbeAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	f := bothEndsFederation()
	const runs = 100
	probed := false
	ctx, es := context.Background(), f.newEvalState()
	_, err := mustCompile(t, bothEndsQueries[2]).Eval(ctx, &probeSolver{evalState: es, probe: func(lay *sparql.SlotLayout, ids *sparql.IDSpace, bgp sparql.BGP, in *sparql.Rows) {
		probed = true
		c := lay.Compile(ids, bgp.Triples[0])
		out := sparql.NewRows(in.Width(), runs+1)
		buf := make([]rdf.TripleID, 0, 8)
		allocs := testing.AllocsPerRun(runs, func() {
			var err error
			if buf, err = es.matchAcross(ctx, c, f.sources, ids, in.Row(0), out, buf, nil); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("one pair probe allocates %v times, want 0", allocs)
		}
		if out.Len() != runs+1 {
			t.Errorf("probes produced %d rows, want %d: the pair probe no longer answers", out.Len(), runs+1)
		}
	}}, sparql.EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !probed {
		t.Fatal("SolveBGP never called")
	}
}

// TestMemberWiringIsOrderIndependent: whichever order AddSource,
// SetResilience and SetObserver are called in, every member ends up with a
// breaker bound to its state gauge, its match-latency histogram, and the
// per-call timeout its kind of source gets.
func TestMemberWiringIsOrderIndependent(t *testing.T) {
	steps := map[string]func(f *Federation, rec Source, reg *obs.Registry){
		"AddSource":     func(f *Federation, rec Source, _ *obs.Registry) { f.AddSource(rec) },
		"SetResilience": func(f *Federation, _ Source, _ *obs.Registry) { f.SetResilience(DefaultResilience()) },
		"SetObserver":   func(f *Federation, _ Source, reg *obs.Registry) { f.SetObserver(reg) },
	}
	for _, order := range [][3]string{
		{"AddSource", "SetResilience", "SetObserver"},
		{"AddSource", "SetObserver", "SetResilience"},
		{"SetResilience", "AddSource", "SetObserver"},
		{"SetResilience", "SetObserver", "AddSource"},
		{"SetObserver", "AddSource", "SetResilience"},
		{"SetObserver", "SetResilience", "AddSource"},
	} {
		whole, _ := motivatingFederation(t)
		f := New(whole.Dict(), storeOf(whole, 0))
		f.SetLinks(whole.Links())
		reg := obs.NewRegistry()
		rec := newRecordingSource(LocalSource(storeOf(whole, 1)))
		for _, step := range order {
			steps[step](f, rec, reg)
		}
		wantTimeout := map[string]time.Duration{"dbpedia": 0, "nytimes": DefaultResilience().Timeout}
		if len(f.sources) != 2 {
			t.Fatalf("%v: %d members, want 2", order, len(f.sources))
		}
		for i, m := range f.sources {
			switch {
			case m.idx != i:
				t.Errorf("%v: member %s has index %d at position %d", order, m.name, m.idx, i)
			case m.br == nil || m.br.gState == nil || m.br.cOpens == nil:
				t.Errorf("%v: member %s has no breaker bound to the registry", order, m.name)
			case m.matchNS == nil:
				t.Errorf("%v: member %s has no match-latency histogram", order, m.name)
			case m.timeout != wantTimeout[m.name]:
				t.Errorf("%v: member %s timeout = %v, want %v", order, m.name, m.timeout, wantTimeout[m.name])
			}
		}
		// And the wiring works: a query feeds both histograms and the
		// gauges of both breakers are in the registry.
		res, err := f.ExecuteContext(context.Background(), motivatingQuery)
		if err != nil || len(res.Answers) != 2 {
			t.Fatalf("%v: answers = %v, err %v", order, res, err)
		}
		snap := reg.Snapshot()
		for _, name := range []string{"dbpedia", "nytimes"} {
			if snap.Histograms[obs.FedSourceMatchNS(name)].Count == 0 {
				t.Errorf("%v: %s never observed", order, obs.FedSourceMatchNS(name))
			}
			if _, ok := snap.Gauges[obs.FedBreakerState(name)]; !ok {
				t.Errorf("%v: gauge %s missing", order, obs.FedBreakerState(name))
			}
		}
	}
}

// TestCallerCancellationIsNotTheSourcesFailure: a call that fails because
// the caller's own context ran out says nothing about the source, so it
// neither counts as a source error nor moves the breaker — five impatient
// clients must not quarantine a slow but healthy endpoint. A per-call
// timeout expiring under a live caller is the source's failure as before.
func TestCallerCancellationIsNotTheSourcesFailure(t *testing.T) {
	f, _, _ := faultyFederation(t, faultinject.Config{Latency: 200 * time.Millisecond}, faultinject.Config{})
	r := DefaultResilience()
	r.Seed = 1
	f.SetResilience(r)
	reg := obs.NewRegistry()
	f.SetObserver(reg)
	for i := 0; i < r.BreakerFailures; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		_, err := f.ExecuteContext(ctx, motivatingQuery)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("query %d: err = %v, want the caller's deadline", i, err)
		}
	}
	if st := f.BreakerState("dbpedia"); st != BreakerClosed {
		t.Errorf("breaker state after %d caller deadlines = %d, want closed", r.BreakerFailures, st)
	}
	if n := reg.Snapshot().Counters[obs.FedSourceErrors]; n != 0 {
		t.Errorf("%s = %d after caller deadlines only, want 0", obs.FedSourceErrors, n)
	}

	r.Timeout = 10 * time.Millisecond
	r.MaxRetries = 0
	r.BreakerFailures = 1
	f.SetResilience(r)
	// The planner's first probe times out and opens the breaker; the bound
	// join then finds the source quarantined.
	var su *SourceUnavailableError
	if _, err := f.ExecuteContext(context.Background(), motivatingQuery); !errors.As(err, &su) || su.Source != "dbpedia" {
		t.Fatalf("err = %v, want dbpedia unavailable", err)
	}
	if st := f.BreakerState("dbpedia"); st != BreakerOpen {
		t.Errorf("breaker state after a per-call timeout = %d, want open", st)
	}
	if n := reg.Snapshot().Counters[obs.FedSourceErrors]; n == 0 {
		t.Errorf("%s = 0 after a per-call timeout under a live caller", obs.FedSourceErrors)
	}
}

// matchDownSource answers the planner's probes and fails every Match — a
// source that went down after source selection — and fails them together:
// a Match returns only once `together` of them are in flight (or a second
// has passed), so that many bound-join workers reach degrade at once.
type matchDownSource struct {
	Source
	together int

	mu      sync.Mutex
	waiting int
	release chan struct{}
}

func (s *matchDownSource) Match(_ context.Context, _ *sparql.IDSpace, _ uint64, _, _, _ rdf.TermID, dst []rdf.TripleID) ([]rdf.TripleID, error) {
	s.mu.Lock()
	if s.release == nil {
		s.release = make(chan struct{})
	}
	release := s.release
	if s.waiting++; s.waiting == s.together {
		s.waiting, s.release = 0, nil
		close(release)
	}
	s.mu.Unlock()
	select {
	case <-release:
	case <-time.After(time.Second):
	}
	return dst, errors.New("down")
}

// TestSkipCountedOncePerSourceUnderParallelism: when the workers of one
// parallel bound join all fail on the same source at once, exactly one of
// them records the skip, so fed.skipped_sources counts sources, not
// workers. The window between the old check and its record was a few
// instructions wide — about 3 queries in 100 fell into it under -race (CI
// runs this package that way), 3 in 1000 without — hence the rounds.
func TestSkipCountedOncePerSourceUnderParallelism(t *testing.T) {
	dict := rdf.NewDict()
	up, down := store.New("up", dict), store.New("down", dict)
	p1, p2 := rdf.NewIRI("http://t/p1"), rdf.NewIRI("http://t/p2")
	for i := 0; i < 64; i++ {
		s := rdf.NewIRI("http://t/s" + strconv.Itoa(i))
		up.Add(rdf.Triple{S: s, P: p1, O: rdf.NewString("x")})
		down.Add(rdf.Triple{S: s, P: p2, O: rdf.NewString("y")})
	}
	f := New(dict, up)
	const workers = 4
	f.AddSource(&matchDownSource{Source: LocalSource(down), together: workers})
	f.SetParallelism(workers)
	f.SetResilience(Resilience{PartialResults: true, Seed: 1})
	reg := obs.NewRegistry()
	f.SetObserver(reg)
	q, err := sparql.Parse(`SELECT ?s ?y WHERE { ?s <http://t/p1> ?x . ?s <http://t/p2> ?y }`)
	if err != nil {
		t.Fatal(err)
	}
	// Written order, p1 first: the second pattern's 64 rows fan out over
	// the workers.
	written := sparql.EvalOptions{DisablePlan: true}
	const rounds = 500
	for i := 0; i < rounds; i++ {
		res, err := f.Eval(context.Background(), sparql.Compile(q), written)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Skipped) != 1 || res.Skipped[0] != (SourceSkip{Source: "down", Reason: "unavailable"}) {
			t.Fatalf("Skipped = %v, want [down/unavailable]", res.Skipped)
		}
	}
	if n := reg.Snapshot().Counters[obs.FedSkippedSources]; n != rounds {
		t.Errorf("%s = %d after %d queries skipping one source each, want %d", obs.FedSkippedSources, n, rounds, rounds)
	}
}
