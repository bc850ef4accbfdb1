package sparql

import (
	"strconv"
	"strings"

	"alex/internal/rdf"
)

// EvalOptions tunes the slot-based evaluator.
type EvalOptions struct {
	// DisablePlan keeps each BGP's written pattern order instead of
	// reordering by estimated selectivity — the ablation switch for
	// measuring what the planner buys.
	DisablePlan bool
}

// planBGP returns the evaluation order of a BGP's triple patterns as
// indexes into tps, greedily picking the pattern with the lowest
// estimated cardinality next (the single-store analogue of fed's join
// reordering). bound marks the slots already bound when the BGP starts;
// picking a pattern marks its variables bound for subsequent estimates,
// which is what makes star joins chain through their selective entry
// point. Ties keep written order, so the plan is deterministic.
func (s *storeSolver) planBGP(lay *SlotLayout, tps []TriplePattern, bound []bool) []int {
	order := make([]int, 0, len(tps))
	if s.opts.DisablePlan || len(tps) < 2 {
		for i := range tps {
			order = append(order, i)
		}
		return order
	}
	b := make([]bool, len(bound))
	copy(b, bound)
	chosen := make([]bool, len(tps))
	for len(order) < len(tps) {
		best, bestCost := -1, 0.0
		for i, tp := range tps {
			if chosen[i] {
				continue
			}
			c := s.estimatePattern(lay, tp, b)
			if best == -1 || c < bestCost {
				best, bestCost = i, c
			}
		}
		order = append(order, best)
		chosen[best] = true
		for _, v := range tps[best].Vars() {
			if sl := lay.Slot(v); sl >= 0 {
				b[sl] = true
			}
		}
	}
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
