package fed

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"alex/internal/linkset"
	"alex/internal/obs"
	"alex/internal/rdf"
	"alex/internal/sparql"
)

// This file is the federation's sparql.Solver: the slot engine hands it a
// basic graph pattern and a set of id rows, and it answers with source
// selection, the planned join order (optimize.go), bound joins, sameAs
// rewriting and the fault-tolerance policy (resilience.go). Rows are the
// engine's fixed-width []rdf.TermID rows plus one trailing provenance
// column: the id of the interned, sorted set of links the row has used.

// evalState is one query evaluation: the link snapshot it runs against,
// the link sets its rows have used and its graceful-degradation
// bookkeeping. It implements sparql.Solver; the evaluation's context
// arrives with every SolveBGP call. mu guards sets and withLink, which
// parallel bound-join workers share.
type evalState struct {
	f     *Federation
	links *linkSnapshot

	mu sync.Mutex
	// sets[i] is the link set with provenance id i, sorted by (Left,
	// Right); sets[0] is the empty set, so an all-unbound row's zero
	// provenance column already means "no link used".
	sets [][]linkset.Link
	// withLink memoizes set ∪ {link}: the rows of one bound join mostly
	// extend the same few sets by the same few links.
	withLink map[setLink]rdf.TermID

	// skipped[i] is non-zero — the reason, see degrade — once member i has
	// been dropped from this query. Allocated only under
	// Resilience.PartialResults, the one policy that drops sources.
	skipped []atomic.Uint32
}

type setLink struct {
	set  rdf.TermID
	link linkset.Link
}

// newEvalState starts an evaluation against the links published now.
func (f *Federation) newEvalState() *evalState {
	es := &evalState{f: f, links: f.links.Load(), sets: make([][]linkset.Link, 1)}
	if f.res.PartialResults {
		es.skipped = make([]atomic.Uint32, len(f.sources))
	}
	return es
}

func (es *evalState) Dict() *rdf.Dict  { return es.f.dict }
func (es *evalState) Provenance() bool { return true }

// Registry is nil: the federation times and counts a query itself
// (SetObserver), under fed.* names.
func (es *evalState) Registry() *obs.Registry { return nil }

// linksOf returns the link set a provenance id names. Callers share the
// slice and must not modify it.
func (es *evalState) linksOf(set rdf.TermID) []linkset.Link {
	es.mu.Lock()
	defer es.mu.Unlock()
	return es.sets[set]
}

// addSet registers a sorted link set. Caller holds es.mu.
func (es *evalState) addSet(links []linkset.Link) rdf.TermID {
	es.sets = append(es.sets, links)
	return rdf.TermID(len(es.sets) - 1)
}

// extend returns the id of set ∪ {link}: what a row's provenance becomes
// when a sameAs rewrite through link produced it.
func (es *evalState) extend(set rdf.TermID, link linkset.Link) rdf.TermID {
	es.mu.Lock()
	defer es.mu.Unlock()
	key := setLink{set, link}
	if id, ok := es.withLink[key]; ok {
		return id
	}
	old := es.sets[set]
	id := set
	if at, has := slices.BinarySearchFunc(old, link, linkset.Compare); !has {
		grown := make([]linkset.Link, 0, len(old)+1)
		grown = append(append(append(grown, old[:at]...), link), old[at:]...)
		id = es.addSet(grown)
	}
	if es.withLink == nil {
		es.withLink = make(map[setLink]rdf.TermID)
	}
	es.withLink[key] = id
	return id
}

// MergeProvenance unions the link sets of the rows aggregated into one
// group: feedback on an aggregated answer implicates every link that
// contributed a row to it.
func (es *evalState) MergeProvenance(sets []rdf.TermID) rdf.TermID {
	es.mu.Lock()
	defer es.mu.Unlock()
	var first rdf.TermID
	var all []linkset.Link
	for _, s := range sets {
		switch {
		case s == rdf.NoTerm || s == first:
		case first == rdf.NoTerm:
			first = s
		default:
			if all == nil {
				all = append(all, es.sets[first]...)
			}
			all = append(all, es.sets[s]...)
		}
	}
	if all == nil {
		return first
	}
	return es.addSet(linkset.Sort(all))
}

// SolvePath rejects property paths: closures over a federation would need
// link-aware reachability across sources, which nothing implements.
func (es *evalState) SolvePath(_ context.Context, _ *sparql.SlotLayout, _ *sparql.IDSpace, pp sparql.PathPattern, _ *sparql.Rows) (*sparql.Rows, error) {
	return nil, fmt.Errorf("fed: property paths are not supported in federated queries (path %s)", sparql.PathString(pp.P))
}

// SolveBGP is a bound join: each pattern extends the current rows, with the
// pattern matched against every source selected for it. Patterns run in the
// order chosen by the selectivity-based optimizer (optimize.go); within a
// pattern, rows are processed by SetParallelism workers (FedX's "bound
// joins in parallel"), preserving row order.
func (es *evalState) SolveBGP(ctx context.Context, lay *sparql.SlotLayout, ids *sparql.IDSpace, bgp sparql.BGP, in *sparql.Rows, sp *obs.Span) (*sparql.Rows, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	plan, err := es.f.planBGP(ctx, es, bgp, boundVarsOf(lay, bgp, in))
	if err != nil {
		return nil, err
	}
	rows := in
	for _, pp := range plan {
		var psp *obs.Span
		if sp != nil {
			psp = sp.Child("pattern")
			psp.SetStr("tp", pp.tp.String())
			psp.SetStr("sources", sourceNames(pp.sources))
			if pp.exclusive {
				psp.SetInt("exclusive", 1)
			}
			psp.SetInt("in", int64(rows.Len()))
		}
		next, err := es.extendRows(ctx, lay.Compile(ids, pp.tp), pp.sources, ids, rows, psp)
		if err != nil {
			psp.End()
			return nil, err
		}
		rows = next
		psp.SetInt("out", int64(rows.Len()))
		psp.End()
		if rows.Len() == 0 {
			break
		}
	}
	return rows, nil
}

// boundVarsOf reports which of the BGP's variables are already bound in
// any current row — the planner's starting point.
func boundVarsOf(lay *sparql.SlotLayout, bgp sparql.BGP, rows *sparql.Rows) map[string]bool {
	out := map[string]bool{}
	for _, tp := range bgp.Triples {
		for _, v := range tp.Vars() {
			if out[v] {
				continue
			}
			slot := lay.Slot(v)
			for i := 0; i < rows.Len(); i++ {
				if rows.Row(i)[slot] != rdf.NoTerm {
					out[v] = true
					break
				}
			}
		}
	}
	return out
}

// sourceNames renders a source list compactly for span attributes.
func sourceNames(sources []*member) string {
	names := ""
	for i, m := range sources {
		if i > 0 {
			names += ","
		}
		names += m.name
	}
	return names
}

// extendRows applies one planned pattern to every row, in parallel when
// configured. Results keep the input row order for determinism.
func (es *evalState) extendRows(ctx context.Context, c sparql.SlotPattern, sources []*member, ids *sparql.IDSpace, rows *sparql.Rows, psp *obs.Span) (*sparql.Rows, error) {
	f := es.f
	f.cBatches.Inc()
	f.hBatchRows.Observe(int64(rows.Len()))
	next := sparql.NewRows(rows.Width(), rows.Len())
	workers := f.parallel
	if workers <= 1 || rows.Len() < 2*workers {
		var buf []rdf.TripleID
		for i := 0; i < rows.Len(); i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			var err error
			if buf, err = es.matchAcross(ctx, c, sources, ids, rows.Row(i), next, buf, psp); err != nil {
				return nil, err
			}
		}
		f.cRowsOut.Add(int64(next.Len()))
		return next, nil
	}
	chunks := make([]*sparql.Rows, rows.Len())
	errs := make([]error, rows.Len())
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i := 0; i < rows.Len(); i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			f.gWorkersBusy.Add(1)
			defer f.gWorkersBusy.Add(-1)
			chunks[i] = sparql.NewRows(rows.Width(), 1)
			_, errs[i] = es.matchAcross(ctx, c, sources, ids, rows.Row(i), chunks[i], nil, psp)
		}(i)
	}
	wg.Wait()
	for i, chunk := range chunks {
		if errs[i] != nil {
			return nil, errs[i]
		}
		for j := 0; j < chunk.Len(); j++ {
			next.Push(chunk.Row(j))
		}
	}
	f.cRowsOut.Add(int64(next.Len()))
	return next, nil
}

// matchAcross extends one row through one pattern over the selected
// sources into out: per source the direct matches, then the matches of
// every sameAs alias of the bound subject, then of the bound object. An
// alias is probed by id and the variable re-bound to the original entity
// (the user sees one entity; the link supplied the alias), with the link
// added to the row's provenance. Under Resilience.PartialResults a source
// that fails past its retry budget is skipped for the remainder of the
// query instead of failing it. buf is scratch for the sources' matches,
// returned for reuse.
func (es *evalState) matchAcross(ctx context.Context, c sparql.SlotPattern, sources []*member, ids *sparql.IDSpace, r []rdf.TermID, out *sparql.Rows, buf []rdf.TripleID, psp *obs.Span) ([]rdf.TripleID, error) {
	f := es.f
	var q [3]rdf.TermID
	q[0], q[1], q[2] = c.Query(r)
	prov := r[len(r)-1]
	// The sameAs aliases of the bound subject and object entities (IRIs
	// only: a link never stands in for a literal).
	var alias [3]aliases
	for _, pos := range [2]int{0, 2} {
		if q[pos] == rdf.NoTerm {
			continue
		}
		if a := es.links.aliasesOf(q[pos]); a.more() && f.dict.Term(q[pos]).IsIRI() {
			alias[pos] = a
		}
	}
sources:
	for _, m := range sources {
		if es.isSkipped(m) {
			continue
		}
		var err error
		if buf, err = f.timedMatch(ctx, m, ids, q, buf[:0]); err != nil {
			if err = f.degrade(es, m, err); err != nil {
				return buf, err
			}
			continue
		}
		for _, t := range buf {
			c.Extend(out, r, t)
		}
		for _, pos := range [2]int{0, 2} {
			for a := alias[pos]; a.more(); {
				to, link := a.next()
				f.cRewrites.Inc()
				probe := q
				probe[pos] = to
				if buf, err = f.timedMatch(ctx, m, ids, probe, buf[:0]); err != nil {
					if err = f.degrade(es, m, err); err != nil {
						return buf, err
					}
					continue sources
				}
				if len(buf) == 0 {
					continue
				}
				via, n := es.extend(prov, link), 0
				for _, t := range buf {
					// The alias matched; the row keeps the entity asked about.
					if pos == 0 {
						t.S = q[0]
					} else {
						t.O = q[2]
					}
					if nr := c.Extend(out, r, t); nr != nil {
						nr[len(nr)-1] = via
						n++
					}
				}
				if n > 0 {
					f.cRewriteRows.Add(int64(n))
					psp.AddInt("rewrites", int64(n))
				}
			}
		}
	}
	return buf, nil
}

// timedMatch is the member's Match under the fault-tolerance policy
// (callSource) plus the per-source latency histogram. The clock is only
// read when an observer is attached. Matches are appended to dst.
func (f *Federation) timedMatch(ctx context.Context, m *member, ids *sparql.IDSpace, q [3]rdf.TermID, dst []rdf.TripleID) ([]rdf.TripleID, error) {
	var t0 time.Time
	if m.matchNS != nil {
		t0 = time.Now()
	}
	out := dst
	err := f.callSource(ctx, m, func(ctx context.Context) error {
		var err error
		// Every attempt appends to dst, not out: a retry starts over.
		out, err = m.src.Match(ctx, ids, q[0], q[1], q[2], dst)
		return err
	})
	if m.matchNS != nil {
		m.matchNS.Observe(time.Since(t0).Nanoseconds())
	}
	if err != nil {
		return dst, err
	}
	return out, nil
}

// selectSources picks the sources that can possibly answer a pattern,
// using a predicate-presence probe (FedX's ASK-based source selection).
// Patterns with a variable predicate go to every source. Probe errors from
// remote sources conservatively keep the source selected — the later
// bound-join call will surface (or degrade) the failure. Sources whose
// circuit breaker is open, or that were already skipped earlier in this
// query, are ejected up front.
func (f *Federation) selectSources(ctx context.Context, es *evalState, tp sparql.TriplePattern) ([]*member, error) {
	var out []*member
	for _, m := range f.sources {
		if es.isSkipped(m) {
			continue
		}
		if f.resOn && !m.br.allow() {
			err := f.degrade(es, m, &SourceUnavailableError{Source: m.name, Err: ErrCircuitOpen})
			if err != nil {
				return nil, err
			}
			continue
		}
		if tp.P.IsVar() {
			out = append(out, m)
			continue
		}
		f.cSourceProbes.Inc()
		has, err := f.hasPredicate(ctx, m, tp.P.Term)
		if err != nil || has {
			out = append(out, m)
		}
	}
	return out, nil
}

// hasPredicate is the member's HasPredicate under the fault-tolerance
// policy: the ASK probe gets the same timeout/retry/breaker treatment as
// bound joins.
func (f *Federation) hasPredicate(ctx context.Context, m *member, pred rdf.Term) (bool, error) {
	var has bool
	err := f.callSource(ctx, m, func(ctx context.Context) error {
		var err error
		has, err = m.src.HasPredicate(ctx, pred)
		return err
	})
	return has, err
}
