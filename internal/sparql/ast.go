package sparql

import (
	"fmt"

	"alex/internal/rdf"
)

// NodeKind discriminates triple-pattern node kinds.
type NodeKind uint8

const (
	// NodeTerm is a concrete RDF term.
	NodeTerm NodeKind = iota
	// NodeVar is a variable.
	NodeVar
)

// Node is one position of a triple pattern: either a concrete term or a
// variable name.
type Node struct {
	Kind NodeKind
	Term rdf.Term // valid when Kind == NodeTerm
	Var  string   // valid when Kind == NodeVar
}

// TermNode wraps a term as a pattern node.
func TermNode(t rdf.Term) Node { return Node{Kind: NodeTerm, Term: t} }

// VarNode wraps a variable name as a pattern node.
func VarNode(name string) Node { return Node{Kind: NodeVar, Var: name} }

// IsVar reports whether the node is a variable.
func (n Node) IsVar() bool { return n.Kind == NodeVar }

func (n Node) String() string {
	if n.IsVar() {
		return "?" + n.Var
	}
	return n.Term.String()
}

// TriplePattern is a subject-predicate-object pattern.
type TriplePattern struct {
	S, P, O Node
}

func (tp TriplePattern) String() string {
	return fmt.Sprintf("%s %s %s .", tp.S, tp.P, tp.O)
}

// Vars returns the distinct variable names in the pattern, in SPO order.
func (tp TriplePattern) Vars() []string {
	var out []string
	seen := map[string]bool{}
	for _, n := range []Node{tp.S, tp.P, tp.O} {
		if n.IsVar() && !seen[n.Var] {
			seen[n.Var] = true
			out = append(out, n.Var)
		}
	}
	return out
}

// Pattern is a group graph pattern element.
type Pattern interface{ pattern() }

// BGP is a basic graph pattern: a conjunction of triple patterns.
type BGP struct {
	Triples []TriplePattern
}

// Filter constrains bindings with a boolean expression.
type Filter struct {
	Expr Expr
}

// Optional is an OPTIONAL group (left outer join).
type Optional struct {
	Patterns []Pattern
}

// Union is the alternation of two groups.
type Union struct {
	Left, Right []Pattern
}

// Values is an inline data block: each row binds Vars positionally. A zero
// Term in a row leaves the variable unbound for that row (UNDEF).
type Values struct {
	Vars []string
	Rows [][]rdf.Term
}

// Exists is a FILTER EXISTS / FILTER NOT EXISTS constraint: a solution
// survives when the inner group has (Not=false) or lacks (Not=true) at
// least one solution compatible with it.
type Exists struct {
	Not      bool
	Patterns []Pattern
}

// Bind evaluates an expression and binds the result to a fresh variable
// (SPARQL BIND). Evaluation errors leave the variable unbound for that
// solution, per the SPARQL error semantics.
type Bind struct {
	Expr Expr
	As   string
}

func (Bind) pattern()     {}
func (BGP) pattern()      {}
func (Filter) pattern()   {}
func (Optional) pattern() {}
func (Union) pattern()    {}
func (Values) pattern()   {}
func (Exists) pattern()   {}

// OrderKey is one ORDER BY key.
type OrderKey struct {
	Var  string
	Desc bool
}

// Aggregate is one aggregate projection item, e.g. (COUNT(?x) AS ?n).
type Aggregate struct {
	// Func is the upper-cased aggregate name: COUNT, SUM, MIN, MAX, AVG.
	Func string
	// Var is the aggregated variable; empty for COUNT(*).
	Var string
	// Distinct marks COUNT(DISTINCT ?v).
	Distinct bool
	// As is the result variable name.
	As string
}

// Query is a parsed SELECT, ASK or CONSTRUCT query.
type Query struct {
	// Ask marks an ASK query: the result is only whether any solution
	// exists.
	Ask bool
	// Construct holds the template of a CONSTRUCT query; nil otherwise.
	// The result of a CONSTRUCT query is Result.Triples.
	Construct []TriplePattern
	Distinct  bool
	// Vars is the projection; empty means SELECT * unless Aggregates is
	// non-empty.
	Vars []string
	// Aggregates holds aggregate projection items; when non-empty the
	// query is grouped by GroupBy (or forms a single group).
	Aggregates []Aggregate
	GroupBy    []string
	Patterns   []Pattern
	OrderBy    []OrderKey
	Limit      int // -1 when absent
	Offset     int
}

// AllVars returns every variable mentioned in the query's patterns, in
// first-appearance order. Used for SELECT *.
func (q *Query) AllVars() []string {
	var out []string
	seen := map[string]bool{}
	var walk func(ps []Pattern)
	walk = func(ps []Pattern) {
		for _, p := range ps {
			switch p := p.(type) {
			case BGP:
				for _, tp := range p.Triples {
					for _, v := range tp.Vars() {
						if !seen[v] {
							seen[v] = true
							out = append(out, v)
						}
					}
				}
			case Optional:
				walk(p.Patterns)
			case Union:
				walk(p.Left)
				walk(p.Right)
			case Values:
				for _, v := range p.Vars {
					if !seen[v] {
						seen[v] = true
						out = append(out, v)
					}
				}
			case PathPattern:
				for _, n := range []Node{p.S, p.O} {
					if n.IsVar() && !seen[n.Var] {
						seen[n.Var] = true
						out = append(out, n.Var)
					}
				}
			case Bind:
				if !seen[p.As] {
					seen[p.As] = true
					out = append(out, p.As)
				}
			}
		}
	}
	walk(q.Patterns)
	return out
}
