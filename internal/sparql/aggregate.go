package sparql

import (
	"fmt"
	"sort"
	"strconv"

	"alex/internal/rdf"
)

// aggregateRows applies GROUP BY + aggregate projection to solution rows:
// rows are partitioned by the grouping variables (one global group when
// GROUP BY is absent), and each group yields one row binding the group keys
// plus every aggregate alias. Groups are emitted in deterministic order.
func aggregateRows(q *Query, rows []Binding) ([]Binding, error) {
	type group struct {
		key  string
		rows []Binding
	}
	byKey := map[string]*group{}
	var order []string
	for _, row := range rows {
		k := rowKey(q.GroupBy, row)
		g, ok := byKey[k]
		if !ok {
			g = &group{key: k}
			byKey[k] = g
			order = append(order, k)
		}
		g.rows = append(g.rows, row)
	}
	// A grouped query over zero rows yields zero groups; an ungrouped
	// aggregate query over zero rows yields one all-empty group (COUNT=0),
	// per SPARQL semantics.
	if len(order) == 0 && len(q.GroupBy) == 0 {
		byKey[""] = &group{}
		order = append(order, "")
	}
	sort.Strings(order)
	out := make([]Binding, 0, len(order))
	for _, k := range order {
		result, err := aggregateGroup(q, byKey[k].rows)
		if err != nil {
			return nil, err
		}
		out = append(out, result)
	}
	return out, nil
}

// aggregateGroup evaluates a query's aggregates over one group of rows,
// returning the group's output binding (group keys + aggregate aliases).
func aggregateGroup(q *Query, rows []Binding) (Binding, error) {
	result := Binding{}
	if len(rows) > 0 {
		for _, gv := range q.GroupBy {
			if t, ok := rows[0][gv]; ok {
				result[gv] = t
			}
		}
	}
	for _, agg := range q.Aggregates {
		t, err := evalAggregate(agg, rows)
		if err != nil {
			return nil, err
		}
		if !t.IsZero() {
			result[agg.As] = t
		}
	}
	return result, nil
}

// evalAggregate computes one aggregate over a group's rows. Unbound and
// (for numeric aggregates) non-numeric values are skipped, mirroring
// SPARQL's error-ignoring aggregate semantics. An empty input yields a
// zero Term for all aggregates except COUNT, which yields 0.
func evalAggregate(agg Aggregate, rows []Binding) (rdf.Term, error) {
	if agg.Func == "COUNT" {
		n := 0
		if agg.Var == "" {
			n = len(rows)
		} else if agg.Distinct {
			seen := map[rdf.Term]struct{}{}
			for _, r := range rows {
				if t, ok := r[agg.Var]; ok {
					seen[t] = struct{}{}
				}
			}
			n = len(seen)
		} else {
			for _, r := range rows {
				if _, ok := r[agg.Var]; ok {
					n++
				}
			}
		}
		return rdf.NewInt(int64(n)), nil
	}

	var terms []rdf.Term
	seen := map[rdf.Term]struct{}{}
	for _, r := range rows {
		t, ok := r[agg.Var]
		if !ok {
			continue
		}
		if agg.Distinct {
			if _, dup := seen[t]; dup {
				continue
			}
			seen[t] = struct{}{}
		}
		terms = append(terms, t)
	}
	if len(terms) == 0 {
		return rdf.Term{}, nil
	}
	switch agg.Func {
	case "MIN", "MAX":
		best := terms[0]
		for _, t := range terms[1:] {
			c := compareTerms(t, best)
			if (agg.Func == "MIN" && c < 0) || (agg.Func == "MAX" && c > 0) {
				best = t
			}
		}
		return best, nil
	case "SUM", "AVG":
		sum := 0.0
		n := 0
		for _, t := range terms {
			if v, ok := numericValue(t); ok {
				sum += v
				n++
			}
		}
		if n == 0 {
			return rdf.Term{}, nil
		}
		if agg.Func == "SUM" {
			return numericTerm(sum), nil
		}
		return numericTerm(sum / float64(n)), nil
	default:
		return rdf.Term{}, fmt.Errorf("sparql: unknown aggregate %s", agg.Func)
	}
}

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
