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
				n, err := f.count(ctx, es, sources[k], ids, s, p, o)
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

// count is the member's Count at the generation es pinned, under the
// fault-tolerance policy (retries, timeouts, breaker accounting); on a
// healthy passthrough it is a plain source call.
func (f *Federation) count(ctx context.Context, es *evalState, m *member, ids *sparql.IDSpace, s, p, o rdf.TermID) (float64, error) {
	var n float64
	err := f.callSource(ctx, m, func(ctx context.Context) error {
		var err error
		n, err = m.src.Count(ctx, ids, es.gens[m.idx], s, p, o)
		return err
	})
	return n, err
}
