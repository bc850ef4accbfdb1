package sparql

import (
	"alex/internal/obs"
	"alex/internal/rdf"
	"alex/internal/store"
)

// Result is the solution sequence of a query: projected variable names and
// one binding row per solution. Rows omit variables left unbound by
// OPTIONAL. For CONSTRUCT queries, Triples holds the constructed graph and
// Vars/Rows are empty.
type Result struct {
	Vars    []string
	Rows    []Binding
	Triples []rdf.Triple
}

// Execute parses a query, evaluates it over a single store and decodes
// the rows: the convenience for callers that hold query text and want
// Bindings. Serving paths compile once (Prepare, Compile) and call
// (*Prepared).Eval with their request's context.
func Execute(st *store.Store, query string) (*Result, error) {
	q, err := Parse(query)
	if err != nil {
		return nil, err
	}
	res, err := Compile(q).EvalSlots(st)
	if err != nil {
		return nil, err
	}
	return res.Materialize(), nil
}

// AskResult interprets the result of an ASK query: true when any solution
// exists.
func (r *Result) AskResult() bool { return len(r.Rows) > 0 }

// stageSpan opens a child span named after the pattern type.
func stageSpan(sp *obs.Span, p Pattern) *obs.Span {
	if sp == nil {
		return nil
	}
	return sp.Child(stageName(p))
}

// stageName names an evaluation stage after its pattern type; the names
// double as the <stage> segment of the sparql.stage.<stage>.rows metric.
func stageName(p Pattern) string {
	switch p.(type) {
	case BGP:
		return "bgp"
	case Filter:
		return "filter"
	case Optional:
		return "optional"
	case Union:
		return "union"
	case Values:
		return "values"
	case Exists:
		return "exists"
	case PathPattern:
		return "path"
	case Bind:
		return "bind"
	default:
		return "pattern-group"
	}
}
