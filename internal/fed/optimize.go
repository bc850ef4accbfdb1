package fed

import (
	"context"

	"alex/internal/obs"
	"alex/internal/rdf"
	"alex/internal/sparql"
)

// This file implements the FedX-style query optimizations the paper's
// substrate relies on (Schwarte et al., ISWC 2011): source selection by
// predicate probe (selectSources, solver.go) and greedy selectivity-based
// join reordering, so bound joins touch the smallest intermediate results
// first. The ordering loop and the cost model are internal/sparql's, shared
// with the store solver; what is the federation's own is which sources
// answer a pattern and how each answers Count.

// plannedPattern is one triple pattern, compiled against the evaluation,
// with its selected sources.
type plannedPattern struct {
	tp      sparql.TriplePattern
	c       sparql.SlotPattern
	sources []*member
	// exclusive marks patterns answerable by exactly one source — FedX's
	// exclusive groups; they never multiply intermediate results across
	// sources.
	exclusive bool
}

// planBGP selects the sources of every pattern of a basic graph pattern
// and, for two patterns or more, orders them by sparql.GreedyOrder over
// sparql.Estimate: starting from the slots bound marks, the cheapest pattern
// given what is bound so far runs next. A source whose Count fails counts
// 1<<20 — an estimate it cannot give is assumed expensive.
func (f *Federation) planBGP(ctx context.Context, es *evalState, lay *sparql.SlotLayout, ids *sparql.IDSpace, bgp sparql.BGP, bound []bool) ([]plannedPattern, error) {
	written := make([]plannedPattern, 0, len(bgp.Triples))
	for _, tp := range bgp.Triples {
		sources, err := f.selectSources(ctx, es, ids, tp)
		if err != nil {
			return nil, err
		}
		written = append(written, plannedPattern{
			tp:        tp,
			c:         lay.Compile(ids, tp),
			sources:   sources,
			exclusive: len(sources) == 1,
		})
	}
	if len(written) < 2 {
		return written, nil
	}
	ordered := make([]plannedPattern, 0, len(written))
	sparql.GreedyOrder(len(written),
		func(i int) float64 {
			sources := written[i].sources
			return sparql.Estimate(written[i].c, bound, len(sources), func(k int, s, p, o rdf.TermID) float64 {
				n, err := f.count(ctx, sources[k], ids, s, p, o)
				if err != nil {
					return 1 << 20
				}
				return n
			})
		},
		func(i int) {
			ordered = append(ordered, written[i])
			for _, v := range written[i].tp.Vars() {
				if sl := lay.Slot(v); sl >= 0 {
					bound[sl] = true
				}
			}
		})
	return ordered, nil
}

// count is the member's Count under the fault-tolerance policy (retries,
// timeouts, breaker accounting); on a healthy passthrough it is a plain
// source call.
func (f *Federation) count(ctx context.Context, m *member, ids *sparql.IDSpace, s, p, o rdf.TermID) (float64, error) {
	var n float64
	err := f.callSource(ctx, m, func(ctx context.Context) error {
		var err error
		n, err = m.src.Count(ctx, ids, s, p, o)
		return err
	})
	return n, err
}

// PlanDescriptionContext reports, for diagnostics and tests, the evaluation
// order and per-pattern source names the optimizer chose for a query's
// first top-level BGP, planned with nothing bound before it. ctx bounds the
// Count probes planning issues. No source is matched: the query runs
// against a describer, which answers every pattern with no rows.
func (f *Federation) PlanDescriptionContext(ctx context.Context, query string) ([]string, error) {
	q, err := sparql.Parse(query)
	if err != nil {
		return nil, err
	}
	d := &describer{evalState: f.newEvalState()}
	for _, p := range q.Patterns {
		if bgp, ok := p.(sparql.BGP); ok && len(bgp.Triples) > 0 {
			d.first = &bgp.Triples[0]
			break
		}
	}
	if d.first == nil {
		return nil, nil
	}
	if _, err := sparql.Compile(q).Eval(ctx, d, sparql.EvalOptions{}); err != nil {
		return nil, err
	}
	return d.plan, nil
}

// describer is the solver PlanDescriptionContext evaluates against: the
// federation's, except that it plans only the BGP whose first pattern is
// first, and answers every BGP and path with no rows, so nothing else runs.
type describer struct {
	*evalState
	first *sparql.TriplePattern
	plan  []string
}

func (d *describer) SolveBGP(ctx context.Context, lay *sparql.SlotLayout, ids *sparql.IDSpace, bgp sparql.BGP, in *sparql.Rows, _ *obs.Span) (*sparql.Rows, error) {
	if len(bgp.Triples) > 0 && &bgp.Triples[0] == d.first {
		plan, err := d.f.planBGP(ctx, d.evalState, lay, ids, bgp, make([]bool, in.Width()))
		if err != nil {
			return nil, err
		}
		for _, pp := range plan {
			marker := ""
			if pp.exclusive {
				marker = " [exclusive]"
			}
			d.plan = append(d.plan, pp.tp.String()+" @ {"+sourceNames(pp.sources)+"}"+marker)
		}
	}
	return sparql.NewRows(in.Width(), 0), nil
}

func (d *describer) SolvePath(_ context.Context, _ *sparql.SlotLayout, _ *sparql.IDSpace, _ sparql.PathPattern, in *sparql.Rows) (*sparql.Rows, error) {
	return sparql.NewRows(in.Width(), 0), nil
}
