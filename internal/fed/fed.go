// Package fed implements a FedX-style federated query processor — the
// substrate the paper assumes (§3.2).
//
// A Federation holds member sources (in-process stores sharing one term
// dictionary, and/or remote HTTP SPARQL endpoints via internal/endpoint),
// plus a set of owl:sameAs candidate links. Queries are parsed with
// internal/sparql and evaluated against all member sources: each triple
// pattern is routed by predicate-probe source selection (a source's Count
// of the predicate: a local posting list or a remote, cached COUNT), join
// order is chosen by the single-store planner's cost model over the
// members' counts, bound joins optionally run in parallel, and bound
// entity terms are transparently rewritten through sameAs links so a join
// can cross data-set boundaries. A link is one hop: a pattern is probed as
// asked, with its bound subject or its bound object replaced by an alias,
// and with both replaced by a pair of aliases, one link each, never along
// a chain a~b, b~c (reference_test.go states this meaning as a
// materialised store). A federation can itself be served as an endpoint
// (CachedEndpointQueryFunc), enabling hierarchical federation.
//
// There is one SPARQL evaluator: internal/sparql's slot engine. The
// federation is that engine's second sparql.Solver (solver.go) — it answers
// basic graph patterns from many sources where the store-backed solver
// answers them from one — so every operator above a BGP (OPTIONAL, UNION,
// FILTER, aggregates, ORDER BY, DISTINCT …) is the single-store code.
//
// Every answer row carries provenance: the exact links that were used to
// produce it. ALEX interprets user feedback on an answer as feedback on
// those links (§1, §3.2).
package fed

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"alex/internal/linkset"
	"alex/internal/obs"
	"alex/internal/rdf"
	"alex/internal/sparql"
	"alex/internal/store"
)

// Federation is a set of member sources (in-process stores and/or remote
// endpoints) plus sameAs links.
type Federation struct {
	dict *rdf.Dict
	// sources holds one member per source, in the order they were added.
	// It is written only during setup (New, AddSource, SetResilience,
	// SetObserver), never during query evaluation, so queries and
	// DataGeneration read it without locking.
	sources []*member
	// links is the active link set with its alias index, published as one
	// immutable snapshot: SetLinks may run (the feedback path calls it)
	// while queries are in flight, and each evaluation loads the snapshot
	// once, so it sees one consistent link set throughout.
	links atomic.Pointer[linkSnapshot]
	// parallel is the worker count for bound joins; 1 disables parallelism.
	parallel int

	// Fault tolerance (resilience.go). res holds the active policy and
	// resOn caches whether any of it is enabled; what the policy means for
	// one source — its per-call timeout, its breaker — lives in that
	// source's member.
	res   Resilience
	resOn bool
	// jitterRNG randomizes retry backoff; guarded by jitterMu because
	// parallel bound-join workers retry concurrently.
	jitterMu  sync.Mutex
	jitterRNG *rand.Rand

	// Observability. obsReg is nil when disabled; the individual
	// instruments are nil-safe so hot paths call them unconditionally
	// (one branch inside the instrument). The per-source match-latency
	// histograms live in the members.
	obsReg        *obs.Registry
	cQueries      *obs.Counter
	hQueryNS      *obs.Histogram
	cSourceProbes *obs.Counter
	cRewrites     *obs.Counter
	cRewriteRows  *obs.Counter
	cBatches      *obs.Counter
	hBatchRows    *obs.Histogram
	cRowsOut      *obs.Counter
	gWorkersBusy  *obs.Gauge

	// Resilience instruments (resilience.go).
	cSourceErrors *obs.Counter
	cRetries      *obs.Counter
	cGiveups      *obs.Counter
	cPartial      *obs.Counter
	cSkips        *obs.Counter
}

// linkSnapshot is one published link set: the set itself plus the alias
// index over it, two runs (linkset.Compare order) looked up by binary
// search. byLeft holds the links as they are — it is the set's own sorted
// view — and byRight holds every link reversed, so the entities linked to x
// are the Right ends of linkset.WithLeft(run, x) in both. Neither array is
// written after SetLinks stores the snapshot. gen counts SetLinks calls.
type linkSnapshot struct {
	links           *linkset.Set
	byLeft, byRight []linkset.Link
	gen             uint64
}

// aliases lists the links that mention one entity, as sub-slices of a
// snapshot's two runs: out are those it is the Left end of, in — reversed,
// so the entity leads there too — those it is the Right end of.
type aliases struct{ out, in []linkset.Link }

// aliasesOf finds x's aliases; it allocates nothing.
func (s *linkSnapshot) aliasesOf(x rdf.TermID) aliases {
	return aliases{out: linkset.WithLeft(s.byLeft, x), in: linkset.WithLeft(s.byRight, x)}
}

// more reports whether an alias is left.
func (a *aliases) more() bool { return len(a.out)+len(a.in) > 0 }

// next pops the alias whose justifying link is smallest in (Left, Right)
// order — the order query evaluation has always rewritten in, also for an
// entity on both sides of a chain a~b, b~c — and returns the aliased
// entity with that link. Call it only while more reports true.
func (a *aliases) next() (to rdf.TermID, link linkset.Link) {
	if len(a.in) > 0 {
		if link = a.in[0].Reversed(); len(a.out) == 0 || linkset.Compare(link, a.out[0]) < 0 {
			a.in = a.in[1:]
			return link.Left, link
		}
	}
	link = a.out[0]
	a.out = a.out[1:]
	return link.Right, link
}

// member is one source of the federation together with everything a probe
// of it consults — its breaker, its match-latency histogram and the per-call
// timeout that applies to it — resolved when the source, the policy or the
// observer is installed, so that a probe looks nothing up by name.
type member struct {
	src  Source
	name string // src.Name()
	// idx is the member's position in Federation.sources, and its slot in
	// an evaluation's skip flags.
	idx int
	// timeout is Resilience.Timeout for a source that can wait, and zero for
	// a localSource: its calls cannot block and never look at their context,
	// so a deadline on it would only arm and disarm a timer.
	timeout time.Duration
	br      *breaker       // nil without a breaker policy
	matchNS *obs.Histogram // nil without an observer
}

// addMember appends src's member, wired to the current policy and observer.
func (f *Federation) addMember(src Source) {
	m := &member{src: src, name: src.Name(), idx: len(f.sources)}
	f.sources = append(f.sources, m)
	f.applyPolicy(m)
	f.bindMember(m)
}

// bindMember (re)binds a member's instruments to the current registry,
// keeping its breaker's state; nil-safe on a detached registry.
func (f *Federation) bindMember(m *member) {
	m.matchNS = f.obsReg.Histogram(obs.FedSourceMatchNS(m.name))
	m.br.bind(f.obsReg.Counter(obs.FedBreakerOpens), f.obsReg.Gauge(obs.FedBreakerState(m.name)))
}

// New returns a federation over the given stores, which must share dict.
func New(dict *rdf.Dict, stores ...*store.Store) *Federation {
	f := &Federation{dict: dict, parallel: 1}
	f.links.Store(&linkSnapshot{links: linkset.New()})
	for _, st := range stores {
		f.addMember(LocalSource(st))
	}
	return f
}

// DataGeneration sums the link-set generation and every member's
// Generation: each is monotonic, so the sum strictly increases on every
// change to the federation's data and never revisits a value, and result
// caches keyed on it (endpoint.NewQueryCache) compare for exact equality.
// An evaluation pins the same parts once and tags its reply with their sum.
// A remote member's part moves when a reply from its endpoint carries a new
// generation, so it is stale at most until the client's next reply from
// that endpoint. A result-cache hit sends no request.
func (f *Federation) DataGeneration() uint64 {
	gen := f.links.Load().gen
	for _, m := range f.sources {
		gen += m.src.Generation()
	}
	return gen
}

// AddSource adds a member source (e.g. a remote endpoint) to the
// federation.
func (f *Federation) AddSource(src Source) { f.addMember(src) }

// SetObserver attaches a metrics registry. Federated-query instruments:
// fed.queries / fed.query_ns (count and latency of Eval calls),
// fed.source_probes (source-selection Count probes),
// fed.sameas.rewrites / fed.sameas.rows (sameAs substitutions fired and
// the rows they produced), fed.boundjoin.batches / fed.boundjoin.rows
// (bound-join batches and their input cardinalities),
// fed.workers_busy (in-flight bound-join workers under SetParallelism),
// fed.rows (total rows emitted by pattern extension), and per-source
// fed.source.<name>.match_ns latency histograms. Sources added later are
// observed too; a nil registry detaches. Not safe to call concurrently with
// query evaluation.
func (f *Federation) SetObserver(reg *obs.Registry) {
	f.obsReg = reg
	f.cQueries = reg.Counter(obs.FedQueries)
	f.hQueryNS = reg.Histogram(obs.FedQueryNS)
	f.cSourceProbes = reg.Counter(obs.FedSourceProbes)
	f.cRewrites = reg.Counter(obs.FedSameasRewrites)
	f.cRewriteRows = reg.Counter(obs.FedSameasRows)
	f.cBatches = reg.Counter(obs.FedBoundJoinBatches)
	f.hBatchRows = reg.Histogram(obs.FedBoundJoinRows)
	f.cRowsOut = reg.Counter(obs.FedRows)
	f.gWorkersBusy = reg.Gauge(obs.FedWorkersBusy)
	f.bindResilienceObs()
	for _, m := range f.sources {
		f.bindMember(m)
	}
}

// Dict returns the shared dictionary.
func (f *Federation) Dict() *rdf.Dict { return f.dict }

// SetLinks replaces the active sameAs link set. The federation reads the
// set once; call SetLinks again after the candidate set changes to refresh
// the alias index (ALEX does this after every episode). Safe to call while
// queries run: a query in flight keeps the snapshot it started with.
//
// Cost: one linear-time sort of the set's links reversed into a newly
// allocated by-right run; the by-left run is the set's own. A set never
// changes, and neither run is written again.
func (f *Federation) SetLinks(links *linkset.Set) {
	byLeft := links.Sorted()
	byRight := make([]linkset.Link, len(byLeft))
	for i, l := range byLeft {
		byRight[i] = l.Reversed()
	}
	snap := &linkSnapshot{links: links, byLeft: byLeft, byRight: linkset.Sort(byRight)}
	// Swapping against the snapshot gen was counted from keeps concurrent
	// calls' generations strictly increasing.
	for old := f.links.Load(); ; old = f.links.Load() {
		if snap.gen = old.gen + 1; f.links.CompareAndSwap(old, snap) {
			return
		}
	}
}

// Links returns the active link set — the very set passed to SetLinks, not
// a copy; a set never changes.
func (f *Federation) Links() *linkset.Set { return f.links.Load().links }

// Answer is one solution row with the links used to produce it, sorted by
// (Left, Right).
type Answer struct {
	Binding sparql.Binding
	Used    []linkset.Link
}

// SourceSkip records a member source that contributed nothing to a result
// because it was unavailable (retry budget exhausted, per-call timeout, or
// circuit breaker open).
type SourceSkip struct {
	Source string `json:"source"`
	Reason string `json:"reason"`
}

// Result is a federated query result. For CONSTRUCT queries, Triples holds
// the constructed graph (with no per-triple provenance; use SELECT when
// feedback is intended). Skipped is non-empty only under
// Resilience.PartialResults: it lists the sources that were unavailable,
// so the answers may be incomplete.
type Result struct {
	Vars    []string
	Answers []Answer
	Triples []rdf.Triple
	Skipped []SourceSkip
}

// Partial reports whether any member source was skipped, i.e. the answers
// may be incomplete.
func (r *Result) Partial() bool { return len(r.Skipped) > 0 }

// AskResult interprets a federated ASK result. The witness answer carries
// the links that make the ASK true.
func (r *Result) AskResult() bool { return len(r.Answers) > 0 }

// ExecuteContext parses and evaluates query against the federation.
// Cancellation and deadline are propagated into every source call
// (including remote HTTP requests), so a whole federated query can be
// bounded by one per-request timeout.
func (f *Federation) ExecuteContext(ctx context.Context, query string) (*Result, error) {
	q, err := sparql.Parse(query)
	if err != nil {
		return nil, err
	}
	return f.Eval(ctx, sparql.Compile(q), sparql.EvalOptions{})
}

// Eval evaluates a compiled query under ctx. A trace in ctx
// (obs.WithTrace; /debug/trace attaches one to the served path) records an
// EXPLAIN-style span tree: each BGP's plan (its patterns in planned
// order with the sources chosen for each), per-pattern spans with join
// input/output cardinalities, sameAs rewrites fired, and per-stage
// durations (metrics are recorded either way when an observer is set). The
// recorded prefix survives an evaluation that fails partway — often
// exactly what one wants to see. opts.DisablePlan runs every BGP in
// written order, as it does for a single store. With
// Resilience.PartialResults enabled, skipped sources are annotated on the
// root span ("partial", "skipped") and returned in Result.Skipped.
func (f *Federation) Eval(ctx context.Context, prep *sparql.Prepared, opts sparql.EvalOptions) (*Result, error) {
	rows, es, skips, err := f.eval(ctx, prep, opts)
	if err != nil {
		return nil, err
	}
	res := &Result{Vars: rows.Vars, Triples: rows.Triples, Skipped: skips}
	// The evaluation is over, so no bound-join worker shares es.sets any
	// more; the answers share its link sets and must not modify them.
	if n := rows.Len(); n > 0 {
		res.Answers = make([]Answer, n)
		for i := range res.Answers {
			res.Answers[i] = Answer{Binding: rows.Binding(i), Used: es.sets[rows.Provenance(i)]}
		}
	}
	return res, nil
}

// eval runs prep against the federation, rows left in id space, and does
// what every evaluation owes the observer and the trace: the query count
// and latency, and the partial-result accounting. It returns the rows, the
// evaluation state their provenance ids refer to, and the skipped sources.
func (f *Federation) eval(ctx context.Context, prep *sparql.Prepared, opts sparql.EvalOptions) (*sparql.SlotResult, *evalState, []SourceSkip, error) {
	var t0 time.Time
	if f.obsReg != nil {
		t0 = time.Now()
	}
	es := f.newEvalState()
	rows, err := prep.Eval(ctx, es, opts)
	if err != nil {
		return nil, nil, nil, err
	}
	skips := es.skips()
	if len(skips) > 0 {
		f.cPartial.Inc()
		sp := obs.TraceFrom(ctx).Root()
		sp.SetInt("partial", 1)
		names := ""
		for i, sk := range skips {
			if i > 0 {
				names += ","
			}
			names += sk.Source
		}
		sp.SetStr("skipped", names)
	}
	f.cQueries.Inc()
	if f.obsReg != nil {
		f.hQueryNS.Observe(time.Since(t0).Nanoseconds())
	}
	return rows, es, skips, nil
}

// SetParallelism sets the bound-join worker count (minimum 1). Parallelism
// pays off when sources are remote endpoints with network latency; for
// in-process stores the default of 1 avoids goroutine overhead.
func (f *Federation) SetParallelism(workers int) {
	if workers < 1 {
		workers = 1
	}
	f.parallel = workers
}
