// Package fed implements a FedX-style federated query processor — the
// substrate the paper assumes (§3.2).
//
// A Federation holds member sources (in-process stores sharing one term
// dictionary, and/or remote HTTP SPARQL endpoints via internal/endpoint),
// plus a set of owl:sameAs candidate links. Queries are parsed with
// internal/sparql and evaluated against all member sources: each triple
// pattern is routed by predicate-probe source selection (local index probe
// or remote ASK), join order is chosen by a greedy selectivity heuristic,
// bound joins optionally run in parallel, and bound entity terms are
// transparently rewritten through sameAs links so a join can cross
// data-set boundaries. A federation can itself be served as an endpoint
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
	// Like genSources it is written only during setup (New, AddSource,
	// SetResilience, SetObserver), never during query evaluation, so
	// queries read it without locking.
	sources []*member
	// links is the active link set with its alias index, published as one
	// immutable snapshot: SetLinks may run (the feedback path calls it)
	// while queries are in flight, and each evaluation loads the snapshot
	// once, so it sees one consistent link set throughout.
	links atomic.Pointer[linkSnapshot]
	// reorder enables greedy selectivity-based join reordering (default).
	reorder bool
	// parallel is the worker count for bound joins; 1 disables parallelism.
	parallel int

	// Data-generation tracking (see DataGeneration). linksGen counts
	// SetLinks calls; genSources holds the generation counters of every
	// member source that exposes one. genSources is written only during
	// setup, never during query evaluation.
	linksGen   atomic.Uint64
	genSources []func() uint64

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
// written after SetLinks stores the snapshot.
type linkSnapshot struct {
	links           *linkset.Set
	byLeft, byRight []linkset.Link
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
	if g, ok := src.(GenerationSource); ok {
		f.genSources = append(f.genSources, g.Generation)
	}
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
	f := &Federation{
		dict:     dict,
		reorder:  true,
		parallel: 1,
	}
	f.links.Store(&linkSnapshot{links: linkset.New()})
	for _, st := range stores {
		f.addMember(LocalSource(st))
	}
	return f
}

// GenerationSource is the optional capability a Source may implement to
// participate in DataGeneration: a counter that strictly increases on
// every mutation of the source's data (store.Store.Generation is the
// canonical implementation; wrappers should forward it).
type GenerationSource interface {
	Generation() uint64
}

// DataGeneration combines the link-set generation and the generation
// counters of every member source that exposes one into a single value
// that changes on any mutation of the federation's data: a store add or
// retract, a bulk load, or a SetLinks swap. Each component is monotonic,
// so the sum strictly increases on every mutation and never revisits a
// value — result caches keyed on it (endpoint.NewQueryCache) can compare
// for exact equality. Sources added without the GenerationSource
// capability (e.g. remote endpoints) are invisible to this counter;
// callers federating such sources should not enable result caching.
func (f *Federation) DataGeneration() uint64 {
	gen := f.linksGen.Load()
	for _, g := range f.genSources {
		gen += g()
	}
	return gen
}

// AddSource adds a member source (e.g. a remote endpoint) to the
// federation.
func (f *Federation) AddSource(src Source) { f.addMember(src) }

// SetObserver attaches a metrics registry. Federated-query instruments:
// fed.queries / fed.query_ns (count and latency of Eval calls),
// fed.source_probes (source-selection predicate probes),
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

// Sources returns the member sources.
func (f *Federation) Sources() []Source {
	out := make([]Source, len(f.sources))
	for i, m := range f.sources {
		out[i] = m.src
	}
	return out
}

// Dict returns the shared dictionary.
func (f *Federation) Dict() *rdf.Dict { return f.dict }

// SetLinks replaces the active sameAs link set. The federation reads the
// set once; call SetLinks again after the candidate set changes to refresh
// the alias index (ALEX does this after every episode). Safe to call while
// queries run: a query in flight keeps the snapshot it started with.
//
// Cost: the set's sorted view (free when the set came from
// core.Engine.Candidates or linkset.FromSorted, one sort otherwise) is
// diffed against the published one in a single walk, and only the links
// that changed are sorted and merged into a newly allocated by-right run —
// linear in the set, n·log n only in the delta. The published arrays are
// never written again, and the view of links is taken now: later Add or
// Remove calls on links show in Links() but reach queries only through the
// next SetLinks.
func (f *Federation) SetLinks(links *linkset.Set) {
	old, next := f.links.Load(), links.Sorted()
	added, removed := linkset.Diff(old.byLeft, next)
	snap := &linkSnapshot{
		links:   links,
		byLeft:  next,
		byRight: linkset.Patch(make([]linkset.Link, 0, len(next)), old.byRight, reversedRun(added), reversedRun(removed)),
	}
	// Publish before bumping the generation: a result cache that reads the
	// new generation must never pair it with answers from the old links.
	f.links.Store(snap)
	f.linksGen.Add(1)
}

// reversedRun reverses every link of links in place and returns them as a
// run.
func reversedRun(links []linkset.Link) []linkset.Link {
	for i, l := range links {
		links[i] = l.Reversed()
	}
	return linkset.Sort(links)
}

// Links returns the active link set — the very set passed to SetLinks, not
// a copy. Treat it as read-only: queries run against the snapshot SetLinks
// took, so changing the set changes what Links reports and nothing else.
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
	return f.EvalContext(ctx, sparql.Compile(q), nil)
}

// EvalContext evaluates a compiled query under ctx, recording an
// EXPLAIN-style span tree into tr: per-pattern spans with source names,
// join input/output cardinalities, sameAs rewrites fired, and per-stage
// durations (nil disables tracing; metrics are still recorded when an
// observer is set). The recorded prefix survives an evaluation that fails
// partway — often exactly what one wants to see. With
// Resilience.PartialResults enabled, skipped sources are annotated on the
// root span ("partial", "skipped") and returned in Result.Skipped.
func (f *Federation) EvalContext(ctx context.Context, prep *sparql.Prepared, tr *obs.Trace) (*Result, error) {
	var t0 time.Time
	if f.obsReg != nil {
		t0 = time.Now()
	}
	es := f.newEvalState()
	rows, err := prep.Eval(ctx, es, sparql.EvalOptions{Trace: tr})
	if err != nil {
		return nil, err
	}
	bindings := rows.Materialize()
	res := &Result{Vars: bindings.Vars, Triples: bindings.Triples}
	if rows.Len() > 0 {
		res.Answers = make([]Answer, rows.Len())
		for i, b := range bindings.Rows {
			res.Answers[i] = Answer{Binding: b, Used: es.linksOf(rows.Provenance(i))}
		}
	}
	if skips := es.skips(); len(skips) > 0 {
		res.Skipped = skips
		f.cPartial.Inc()
		sp := tr.Root()
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
	return res, nil
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
