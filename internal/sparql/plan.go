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
// joins chain through their selective entry point. Both solvers estimate
// with Estimate, so one cost model orders every BGP — a store is a
// one-source federation — and neither plans a BGP of fewer than two
// patterns, which has nothing to order.
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

// Estimate is the one cost model: the cardinality of a compiled pattern
// over the n sources that answer it, given the slots bound so far. count(k,
// s, p, o) is source k's Count of the pattern's constants (rdf.NoTerm where
// a variable stands, bound or not); the estimate is n × Σ count — each of n
// sources is asked once per bound row — divided by 16 for a subject
// variable bound earlier, by 4 for an object and by 2 for a predicate
// (subjects are near-keys in typical RDF data). A pattern some source cannot
// match at all estimates to 0 from that source, and a pattern no source
// matches runs first: it ends the join.
func Estimate(c SlotPattern, bound []bool, n int, count func(k int, s, p, o rdf.TermID) float64) float64 {
	s, p, o := c.s.constant(), c.p.constant(), c.o.constant()
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += count(k, s, p, o)
	}
	est := float64(n) * sum
	if c.s.boundIn(bound) {
		est /= 16
	}
	if c.o.boundIn(bound) {
		est /= 4
	}
	if c.p.boundIn(bound) {
		est /= 2
	}
	return est
}

// constant is the node's id when the pattern fixes it, else rdf.NoTerm.
func (n slotNode) constant() rdf.TermID {
	if n.slot < 0 {
		return n.id
	}
	return rdf.NoTerm
}

// boundIn reports whether the node is a variable whose slot bound marks.
func (n slotNode) boundIn(bound []bool) bool { return n.slot >= 0 && bound[n.slot] }

// planBGP returns the evaluation order of a BGP's compiled patterns as
// indexes into cs. bound marks the slots already bound when the BGP starts,
// and is updated as patterns are placed.
func (s *storeSolver) planBGP(lay *SlotLayout, tps []TriplePattern, cs []SlotPattern, bound []bool) []int {
	if len(cs) < 2 {
		return make([]int, len(cs))
	}
	count := func(_ int, sub, pred, obj rdf.TermID) float64 { return float64(s.v.Count(sub, pred, obj)) }
	order := make([]int, 0, len(cs))
	GreedyOrder(len(cs),
		func(i int) float64 { return Estimate(cs[i], bound, 1, count) },
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
