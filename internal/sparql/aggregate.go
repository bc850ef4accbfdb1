package sparql

import (
	"strconv"

	"alex/internal/rdf"
)

// numericTerm renders a float as an integer literal when it is whole, a
// double otherwise.
func numericTerm(v float64) rdf.Term {
	if v == float64(int64(v)) {
		return rdf.NewInt(int64(v))
	}
	return rdf.NewTyped(strconv.FormatFloat(v, 'g', -1, 64), rdf.XSDDouble)
}

// aggregateVars lists the output variables of an aggregate query: group
// keys then aliases.
func aggregateVars(q *Query) []string {
	out := append([]string{}, q.Vars...)
	for _, a := range q.Aggregates {
		out = append(out, a.As)
	}
	return out
}
