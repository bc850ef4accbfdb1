package sparql

import (
	"strconv"
	"strings"

	"alex/internal/rdf"
)

// GreedyOrder is the join-order rule both solvers share: of the patterns
// not yet placed, the one with the lowest estimate runs next, and ties
// keep written order (strict <), so an order is deterministic. It calls
// place(i), i an index into the n patterns, once per pattern in the order
// chosen. estimate is asked about every unplaced pattern in every round,
// because placing one changes the others' estimates: place is where the
// solver marks the pattern's variables bound, which is what makes star
// joins chain through their selective entry point. What a pattern costs is
// the solver's own business — the store solver reads exact posting counts,
// the federation cached COUNT probes across its sources.
func GreedyOrder(n int, estimate func(i int) float64, place func(i int)) {
	// A BGP rarely has more patterns than this; one that does pays an
	// allocation.
	var few [16]bool
	placed := few[:0]
	if n <= len(few) {
		placed = few[:n]
	} else {
		placed = make([]bool, n)
	}
	for range placed {
		best, bestCost := -1, 0.0
		for i, done := range placed {
			if done {
				continue
			}
			if c := estimate(i); best == -1 || c < bestCost {
				best, bestCost = i, c
			}
		}
		placed[best] = true
		place(best)
	}
}

// planBGP returns the evaluation order of a BGP's triple patterns as
// indexes into tps. bound marks the slots already bound when the BGP
// starts, and is updated as patterns are placed.
func (s *storeSolver) planBGP(lay *SlotLayout, tps []TriplePattern, bound []bool) []int {
	if len(tps) < 2 {
		return make([]int, len(tps))
	}
	order := make([]int, 0, len(tps))
	GreedyOrder(len(tps),
		func(i int) float64 { return s.estimatePattern(lay, tps[i], bound) },
		func(i int) {
			order = append(order, i)
			for _, v := range tps[i].Vars() {
				if sl := lay.Slot(v); sl >= 0 {
					bound[sl] = true
				}
			}
		})
	return order
}

// estimatePattern estimates the result cardinality of one triple pattern
// from the store's per-position posting-list sizes: a bound constant
// position caps the estimate by its exact posting count (0 when the term
// is not even in the dictionary), and a variable already bound by an
// earlier pattern discounts it, subject position hardest (subjects are
// near-keys in typical RDF data).
func (s *storeSolver) estimatePattern(lay *SlotLayout, tp TriplePattern, bound []bool) float64 {
	est := float64(s.st.Len())
	capBy := func(n int) {
		if float64(n) < est {
			est = float64(n)
		}
	}
	constID := func(n Node) (rdf.TermID, bool) {
		if n.IsVar() {
			return rdf.NoTerm, false
		}
		id, ok := s.st.Dict().Lookup(n.Term)
		if !ok {
			return rdf.NoTerm, true // unknown constant: zero matches
		}
		return id, false
	}
	boundVar := func(n Node) bool {
		if !n.IsVar() {
			return false
		}
		sl := lay.Slot(n.Var)
		return sl >= 0 && bound[sl]
	}

	if id, miss := constID(tp.P); miss {
		return 0
	} else if id != rdf.NoTerm {
		capBy(s.st.PredicateCount(id))
	}
	if id, miss := constID(tp.S); miss {
		return 0
	} else if id != rdf.NoTerm {
		capBy(s.st.SubjectCount(id))
	}
	if id, miss := constID(tp.O); miss {
		return 0
	} else if id != rdf.NoTerm {
		capBy(s.st.ObjectCount(id))
	}
	if boundVar(tp.S) {
		est /= 16
	}
	if boundVar(tp.O) {
		est /= 4
	}
	if boundVar(tp.P) {
		est /= 2
	}
	return est
}

// renderPlan describes a planned order for the trace span, e.g.
// "2,0,1" alongside the reordered pattern text.
func renderPlan(tps []TriplePattern, order []int) (idx, text string) {
	var ib, tb strings.Builder
	for i, j := range order {
		if i > 0 {
			ib.WriteByte(',')
			tb.WriteByte(' ')
		}
		ib.WriteString(strconv.Itoa(j))
		tb.WriteString(tps[j].String())
	}
	return ib.String(), tb.String()
}

// planReordered reports whether the planned order differs from the
// written order.
func planReordered(order []int) bool {
	for i, j := range order {
		if i != j {
			return true
		}
	}
	return false
}
