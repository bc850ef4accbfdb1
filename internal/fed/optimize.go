package fed

import (
	"context"

	"alex/internal/rdf"
	"alex/internal/sparql"
)

// This file implements the FedX-style query optimizations the paper's
// substrate relies on (Schwarte et al., ISWC 2011): source selection by
// predicate probe (selectSources, solver.go) and greedy selectivity-based
// join reordering, so bound joins touch the smallest intermediate results
// first. The ordering loop is internal/sparql's, shared with the store
// solver; the cost model below is the federation's own.

// plannedPattern is one triple pattern with its selected sources and the
// cost estimate used for ordering.
type plannedPattern struct {
	tp      sparql.TriplePattern
	sources []*member
	// exclusive marks patterns answerable by exactly one source — FedX's
	// exclusive groups; they never multiply intermediate results across
	// sources.
	exclusive bool
}

// planBGP selects the sources of every pattern of a basic graph pattern
// and orders the patterns by sparql.GreedyOrder over estimateCost: starting
// from the externally bound variables, the cheapest pattern given what is
// bound so far runs next. This is the
// classic variable-counting heuristic FedX uses; it needs no data
// statistics beyond predicate counts.
func (f *Federation) planBGP(ctx context.Context, es *evalState, bgp sparql.BGP, bound map[string]bool) ([]plannedPattern, error) {
	written := make([]plannedPattern, 0, len(bgp.Triples))
	for _, tp := range bgp.Triples {
		sources, err := f.selectSources(ctx, es, tp)
		if err != nil {
			return nil, err
		}
		written = append(written, plannedPattern{
			tp:        tp,
			sources:   sources,
			exclusive: len(sources) == 1,
		})
	}
	if !f.reorder {
		return written, nil
	}
	boundVars := make(map[string]bool, len(bound))
	for v := range bound {
		boundVars[v] = true
	}
	ordered := make([]plannedPattern, 0, len(written))
	sparql.GreedyOrder(len(written),
		func(i int) float64 { return f.estimateCost(ctx, written[i], boundVars) },
		func(i int) {
			ordered = append(ordered, written[i])
			for _, v := range written[i].tp.Vars() {
				boundVars[v] = true
			}
		})
	return ordered, nil
}

// estimateCost scores a pattern given the currently bound variables: lower
// is more selective. The base is the total triple count for the pattern's
// predicate across its sources (or all triples for a variable predicate),
// discounted heavily for a bound subject and moderately for a bound object,
// with a penalty per candidate source.
func (f *Federation) estimateCost(ctx context.Context, p plannedPattern, bound map[string]bool) float64 {
	base := 0.0
	if !p.tp.P.IsVar() {
		for _, m := range p.sources {
			n, err := f.predicateCount(ctx, m, p.tp.P.Term)
			if err != nil {
				// Remote estimate unavailable: assume expensive.
				n = 1 << 20
			}
			base += float64(n)
		}
	} else {
		for _, m := range p.sources {
			n, err := f.sourceSize(ctx, m)
			if err != nil {
				n = 1 << 20
			}
			base += float64(n)
		}
	}
	if base == 0 {
		return 0 // empty pattern: run it first, it terminates the join
	}
	isBound := func(n sparql.Node) bool {
		if n.IsVar() {
			return bound[n.Var]
		}
		return !n.Term.IsZero()
	}
	if isBound(p.tp.S) {
		base /= 16
	}
	if isBound(p.tp.O) {
		base /= 4
	}
	// Multiple sources multiply the bound-join fan-out.
	base *= float64(len(p.sources))
	return base
}

// predicateCount and sourceSize are the cost model's COUNT probes under
// the fault-tolerance policy (retries, timeouts, breaker accounting); on
// a healthy passthrough they are plain source calls.

func (f *Federation) predicateCount(ctx context.Context, m *member, pred rdf.Term) (int, error) {
	var n int
	err := f.callSource(ctx, m, func(ctx context.Context) error {
		var err error
		n, err = m.src.PredicateCount(ctx, pred)
		return err
	})
	return n, err
}

func (f *Federation) sourceSize(ctx context.Context, m *member) (int, error) {
	var n int
	err := f.callSource(ctx, m, func(ctx context.Context) error {
		var err error
		n, err = m.src.Size(ctx)
		return err
	})
	return n, err
}

// DisableReorder turns off join reordering (naive written order), for the
// optimizer ablation benchmark.
func (f *Federation) DisableReorder() { f.reorder = false }

// PlanDescriptionContext reports, for diagnostics and tests, the evaluation
// order and per-pattern source names the optimizer chose for a query's
// first BGP. ctx bounds the cost-model probes (ASK/COUNT against remote
// sources) that planning can issue.
func (f *Federation) PlanDescriptionContext(ctx context.Context, query string) ([]string, error) {
	q, err := sparql.Parse(query)
	if err != nil {
		return nil, err
	}
	for _, p := range q.Patterns {
		bgp, ok := p.(sparql.BGP)
		if !ok {
			continue
		}
		plan, err := f.planBGP(ctx, f.newEvalState(), bgp, map[string]bool{})
		if err != nil {
			return nil, err
		}
		out := make([]string, len(plan))
		for i, pp := range plan {
			marker := ""
			if pp.exclusive {
				marker = " [exclusive]"
			}
			out[i] = pp.tp.String() + " @ {" + sourceNames(pp.sources) + "}" + marker
		}
		return out, nil
	}
	return nil, nil
}
