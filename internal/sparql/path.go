package sparql

import (
	"strings"

	"alex/internal/rdf"
	"alex/internal/store"
)

// Property paths (SPARQL 1.1 §9), supported in predicate position of
// single-store queries: IRIs, inverse ^p, sequence p1/p2, alternative
// p1|p2, grouping (p), and the closures p?, p+ and p*.
//
// A triple pattern whose predicate is a non-trivial path parses into a
// PathPattern instead of a plain TriplePattern. The federated executor does
// not evaluate paths (a closure can hop across sources through sameAs
// links, which would require distributed BFS); it reports a clear error.

// Path is a property-path expression.
type Path interface{ pathExpr() }

// PathIRI is a single predicate step.
type PathIRI struct{ IRI rdf.Term }

// PathInverse reverses the inner path's direction.
type PathInverse struct{ P Path }

// PathSeq chains paths left to right.
type PathSeq struct{ Parts []Path }

// PathAlt tries each alternative.
type PathAlt struct{ Alts []Path }

// PathMod applies a closure modifier: '?', '+' or '*'.
type PathMod struct {
	P   Path
	Mod byte
}

func (PathIRI) pathExpr()     {}
func (PathInverse) pathExpr() {}
func (PathSeq) pathExpr()     {}
func (PathAlt) pathExpr()     {}
func (PathMod) pathExpr()     {}

// PathString renders a path for diagnostics.
func PathString(p Path) string {
	switch p := p.(type) {
	case PathIRI:
		return p.IRI.String()
	case PathInverse:
		return "^" + PathString(p.P)
	case PathSeq:
		parts := make([]string, len(p.Parts))
		for i, x := range p.Parts {
			parts[i] = PathString(x)
		}
		return "(" + strings.Join(parts, "/") + ")"
	case PathAlt:
		parts := make([]string, len(p.Alts))
		for i, x := range p.Alts {
			parts[i] = PathString(x)
		}
		return "(" + strings.Join(parts, "|") + ")"
	case PathMod:
		return PathString(p.P) + string(p.Mod)
	default:
		return "?path?"
	}
}

// PathPattern is a triple pattern whose predicate is a property path.
type PathPattern struct {
	S Node
	P Path
	O Node
}

func (PathPattern) pattern() {}

// pathTargets returns the nodes reachable from `from` along the path in st
// (deduplicated, deterministic order). inverse=true walks the path
// backwards (used when only the object end is bound).
func pathTargets(st store.View, p Path, from rdf.TermID, inverse bool) []rdf.TermID {
	switch p := p.(type) {
	case PathIRI:
		id, ok := st.Store().Dict().Lookup(p.IRI)
		if !ok {
			return nil
		}
		q := [3]rdf.TermID{from, id, rdf.NoTerm}
		if inverse {
			q[0], q[2] = rdf.NoTerm, from
		}
		var out []rdf.TermID
		seen := map[rdf.TermID]struct{}{}
		st.MatchEach(q[0], q[1], q[2], func(t rdf.TripleID) {
			v := t.O
			if inverse {
				v = t.S
			}
			if _, dup := seen[v]; !dup {
				seen[v] = struct{}{}
				out = append(out, v)
			}
		})
		return out
	case PathInverse:
		return pathTargets(st, p.P, from, !inverse)
	case PathSeq:
		parts := p.Parts
		if inverse {
			// Walk the sequence backwards, inverting each step.
			rev := make([]Path, len(parts))
			for i, x := range parts {
				rev[len(parts)-1-i] = x
			}
			parts = rev
		}
		frontier := []rdf.TermID{from}
		for _, step := range parts {
			next := []rdf.TermID{}
			seen := map[rdf.TermID]struct{}{}
			for _, node := range frontier {
				for _, v := range pathTargets(st, step, node, inverse) {
					if _, dup := seen[v]; !dup {
						seen[v] = struct{}{}
						next = append(next, v)
					}
				}
			}
			frontier = next
			if len(frontier) == 0 {
				return nil
			}
		}
		return frontier
	case PathAlt:
		var out []rdf.TermID
		seen := map[rdf.TermID]struct{}{}
		for _, alt := range p.Alts {
			for _, v := range pathTargets(st, alt, from, inverse) {
				if _, dup := seen[v]; !dup {
					seen[v] = struct{}{}
					out = append(out, v)
				}
			}
		}
		return out
	case PathMod:
		switch p.Mod {
		case '?':
			out := []rdf.TermID{from}
			seen := map[rdf.TermID]struct{}{from: {}}
			for _, v := range pathTargets(st, p.P, from, inverse) {
				if _, dup := seen[v]; !dup {
					seen[v] = struct{}{}
					out = append(out, v)
				}
			}
			return out
		case '+', '*':
			// BFS closure.
			seen := map[rdf.TermID]struct{}{}
			var order []rdf.TermID
			frontier := []rdf.TermID{from}
			for len(frontier) > 0 {
				var next []rdf.TermID
				for _, node := range frontier {
					for _, v := range pathTargets(st, p.P, node, inverse) {
						if _, dup := seen[v]; !dup {
							seen[v] = struct{}{}
							order = append(order, v)
							next = append(next, v)
						}
					}
				}
				frontier = next
			}
			if p.Mod == '*' {
				if _, has := seen[from]; !has {
					order = append([]rdf.TermID{from}, order...)
				}
			}
			return order
		}
	}
	return nil
}
