package sparql

import (
	"fmt"
	"sort"

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

// Execute parses and evaluates a query over a single store.
func Execute(st *store.Store, query string) (*Result, error) {
	q, err := Parse(query)
	if err != nil {
		return nil, err
	}
	return Eval(st, q)
}

// Eval evaluates a parsed query over a single store through the
// slot-based engine (see sloteval.go).
func Eval(st *store.Store, q *Query) (*Result, error) {
	return EvalTrace(st, q, nil)
}

// EvalTrace evaluates a parsed query over a single store, recording one
// span per evaluation stage (per-pattern match timing, join input/output
// cardinalities, plan rendering) into tr. A nil trace disables recording
// at the cost of a branch per stage.
func EvalTrace(st *store.Store, q *Query, tr *obs.Trace) (*Result, error) {
	return EvalWithOptions(st, q, tr, EvalOptions{})
}

// EvalCompat evaluates a parsed query through the legacy map-based
// engine: one Binding map per row, terms decoded at every join step. It
// exists as the reference implementation for the slot-engine equivalence
// harness (equiv_test.go) and for A/B benchmarking; production callers
// go through Eval.
func EvalCompat(st *store.Store, q *Query) (*Result, error) {
	rows, err := evalPatterns(st, q.Patterns, []Binding{{}}, nil)
	if err != nil {
		return nil, err
	}
	return finalize(q, rows)
}

// AskResult interprets the result of an ASK query: true when any solution
// exists.
func (r *Result) AskResult() bool { return len(r.Rows) > 0 }

// finalize applies ORDER BY, projection, DISTINCT, OFFSET and LIMIT.
func finalize(q *Query, rows []Binding) (*Result, error) {
	if q.Ask {
		if len(rows) > 0 {
			return &Result{Rows: []Binding{{}}}, nil
		}
		return &Result{}, nil
	}
	if q.Construct != nil {
		rows = sliceRows(rows, q.Offset, q.Limit)
		return &Result{Triples: instantiateTemplate(q.Construct, rows)}, nil
	}
	if len(q.Aggregates) > 0 {
		grouped, err := aggregateRows(q, rows)
		if err != nil {
			return nil, err
		}
		rows = grouped
		res := &Result{Vars: aggregateVars(q)}
		if len(q.OrderBy) > 0 {
			sortRows(rows, q.OrderBy)
		}
		res.Rows = sliceRows(rows, q.Offset, q.Limit)
		return res, nil
	}
	vars := q.Vars
	if len(vars) == 0 {
		vars = q.AllVars()
	}
	if len(q.OrderBy) > 0 {
		sortRows(rows, q.OrderBy)
	}
	projected := make([]Binding, 0, len(rows))
	for _, row := range rows {
		pr := make(Binding, len(vars))
		for _, v := range vars {
			if t, ok := row[v]; ok {
				pr[v] = t
			}
		}
		projected = append(projected, pr)
	}
	if q.Distinct {
		projected = dedupeRows(vars, projected)
	}
	projected = sliceRows(projected, q.Offset, q.Limit)
	return &Result{Vars: vars, Rows: projected}, nil
}

// instantiateTemplate substitutes each solution into the template triples,
// dropping instantiations with unbound variables or ill-formed positions
// (literal subjects, non-IRI predicates), and deduplicating the output.
// Template constants are validated once up front, and duplicates are
// detected on compact interned-id keys instead of hashing three full
// terms per row-triple.
func instantiateTemplate(template []TriplePattern, rows []Binding) []rdf.Triple {
	// Pre-validate the constant-only checks: a template triple with a
	// literal constant subject or non-IRI constant predicate never
	// instantiates, whatever the row.
	tmpl := make([]TriplePattern, 0, len(template))
	for _, tp := range template {
		if !tp.S.IsVar() && (tp.S.Term.IsLiteral() || tp.S.Term.IsZero()) {
			continue
		}
		if !tp.P.IsVar() && !tp.P.Term.IsIRI() {
			continue
		}
		if !tp.O.IsVar() && tp.O.Term.IsZero() {
			continue
		}
		tmpl = append(tmpl, tp)
	}
	var out []rdf.Triple
	intern := make(map[rdf.Term]uint32, 16)
	internID := func(t rdf.Term) uint32 {
		if id, ok := intern[t]; ok {
			return id
		}
		id := uint32(len(intern) + 1)
		intern[t] = id
		return id
	}
	seen := make(map[[3]uint32]struct{}, len(rows))
	for _, row := range rows {
		for _, tp := range tmpl {
			s, okS := resolveNode(tp.S, row)
			p, okP := resolveNode(tp.P, row)
			o, okO := resolveNode(tp.O, row)
			if !okS || !okP || !okO {
				continue
			}
			if s.IsLiteral() || !p.IsIRI() || o.IsZero() || s.IsZero() {
				continue
			}
			k := [3]uint32{internID(s), internID(p), internID(o)}
			if _, dup := seen[k]; dup {
				continue
			}
			seen[k] = struct{}{}
			out = append(out, rdf.Triple{S: s, P: p, O: o})
		}
	}
	return out
}

// resolveNode resolves one template node under a solution row.
func resolveNode(n Node, row Binding) (rdf.Term, bool) {
	if n.IsVar() {
		t, ok := row[n.Var]
		return t, ok
	}
	return n.Term, true
}

// sliceRows applies OFFSET then LIMIT.
func sliceRows(rows []Binding, offset, limit int) []Binding {
	if offset > 0 {
		if offset >= len(rows) {
			return nil
		}
		rows = rows[offset:]
	}
	if limit >= 0 && limit < len(rows) {
		rows = rows[:limit]
	}
	return rows
}

func sortRows(rows []Binding, keys []OrderKey) {
	sort.SliceStable(rows, func(i, j int) bool {
		for _, k := range keys {
			a, aok := rows[i][k.Var]
			b, bok := rows[j][k.Var]
			if !aok && !bok {
				continue
			}
			// Unbound sorts first.
			if !aok || !bok {
				less := !aok
				if k.Desc {
					less = !less
				}
				return less
			}
			c := compareTerms(a, b)
			if c == 0 {
				continue
			}
			if k.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
}

// compareTerms orders terms: numeric by value when both numeric, otherwise
// by kind then lexical value. It is the definition of the order: the slot
// engine sorts by sortKey.compare, which is tested against it pair by pair.
func compareTerms(a, b rdf.Term) int {
	af, aok := numericValue(a)
	bf, bok := numericValue(b)
	if aok && bok {
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		default:
			return 0
		}
	}
	if a.Kind != b.Kind {
		return int(a.Kind) - int(b.Kind)
	}
	switch {
	case a.Value < b.Value:
		return -1
	case a.Value > b.Value:
		return 1
	default:
		return 0
	}
}

// dedupeRows drops duplicate rows. Terms are interned into a per-call id
// space so each row keys as a tuple of 4-byte ids rather than the
// concatenation of every term's N-Triples rendering.
func dedupeRows(vars []string, rows []Binding) []Binding {
	seen := make(map[string]struct{}, len(rows))
	intern := make(map[rdf.Term]uint32, 16)
	key := make([]byte, 4*len(vars))
	out := rows[:0]
	for _, row := range rows {
		for i, v := range vars {
			var id uint32 // 0 = unbound
			if t, ok := row[v]; ok {
				id, ok = intern[t]
				if !ok {
					id = uint32(len(intern) + 1)
					intern[t] = id
				}
			}
			key[4*i] = byte(id)
			key[4*i+1] = byte(id >> 8)
			key[4*i+2] = byte(id >> 16)
			key[4*i+3] = byte(id >> 24)
		}
		if _, dup := seen[string(key)]; dup {
			continue
		}
		seen[string(key)] = struct{}{}
		out = append(out, row)
	}
	return out
}

func rowKey(vars []string, row Binding) string {
	var b []byte
	for _, v := range vars {
		if t, ok := row[v]; ok {
			b = append(b, t.String()...)
		}
		b = append(b, 0x1f)
	}
	return string(b)
}

// evalPatterns folds each group element over the current solution set,
// recording one child span per element under sp (nil disables tracing).
func evalPatterns(st *store.Store, patterns []Pattern, in []Binding, sp *obs.Span) ([]Binding, error) {
	rows := in
	for _, p := range patterns {
		var err error
		stage := stageSpan(sp, p)
		stage.SetInt("in", int64(len(rows)))
		switch p := p.(type) {
		case BGP:
			rows, err = evalBGP(st, p, rows, stage)
		case Filter:
			rows = applyFilter(p.Expr, rows)
		case Optional:
			rows, err = evalOptional(st, p, rows, stage)
		case Union:
			rows, err = evalUnion(st, p, rows, stage)
		case Values:
			rows = evalValues(p, rows)
		case Exists:
			rows, err = evalExists(st, p, rows, stage)
		case PathPattern:
			rows, err = evalPathPattern(st, p, rows)
		case Bind:
			rows = evalBind(p, rows)
		default:
			err = fmt.Errorf("sparql: unknown pattern type %T", p)
		}
		stage.SetInt("out", int64(len(rows)))
		stage.End()
		if err != nil {
			return nil, err
		}
	}
	return rows, nil
}

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

func applyFilter(expr Expr, rows []Binding) []Binding {
	out := rows[:0]
	for _, row := range rows {
		v, err := evalBool(expr, row)
		if err == nil && v {
			out = append(out, row)
		}
	}
	return out
}

func evalOptional(st *store.Store, opt Optional, rows []Binding, sp *obs.Span) ([]Binding, error) {
	var out []Binding
	for _, row := range rows {
		extended, err := evalPatterns(st, opt.Patterns, []Binding{row}, sp)
		if err != nil {
			return nil, err
		}
		if len(extended) == 0 {
			out = append(out, row)
		} else {
			out = append(out, extended...)
		}
	}
	return out, nil
}

// evalBind extends each solution with the bound expression value; an
// evaluation error leaves the variable unbound for that solution, and a
// BIND onto an already-bound variable filters for equality (a simplified
// reading of the SPARQL restriction that the variable be fresh).
func evalBind(bd Bind, rows []Binding) []Binding {
	out := rows[:0]
	for _, row := range rows {
		v, err := bd.Expr.Eval(row)
		if err != nil {
			out = append(out, row)
			continue
		}
		if prev, bound := row[bd.As]; bound {
			if prev == v {
				out = append(out, row)
			}
			continue
		}
		nb := row.Clone()
		nb[bd.As] = v
		out = append(out, nb)
	}
	return out
}

// evalValues joins the current solutions with the inline data block: a
// solution survives (per data row) when every VALUES variable is either
// unbound in the solution or bound to the row's term; unbound variables
// pick up the row's binding. Zero terms (UNDEF) constrain nothing.
func evalValues(v Values, rows []Binding) []Binding {
	var out []Binding
	for _, row := range rows {
		for _, data := range v.Rows {
			nb := row.Clone()
			ok := true
			for i, name := range v.Vars {
				t := data[i]
				if t.IsZero() {
					continue
				}
				if prev, bound := nb[name]; bound {
					if prev != t {
						ok = false
						break
					}
					continue
				}
				nb[name] = t
			}
			if ok {
				out = append(out, nb)
			}
		}
	}
	return out
}

// evalExists filters rows by the existence (or absence) of a compatible
// solution of the inner group.
func evalExists(st *store.Store, e Exists, rows []Binding, sp *obs.Span) ([]Binding, error) {
	out := rows[:0]
	for _, row := range rows {
		matches, err := evalPatterns(st, e.Patterns, []Binding{row.Clone()}, sp)
		if err != nil {
			return nil, err
		}
		if (len(matches) > 0) != e.Not {
			out = append(out, row)
		}
	}
	return out, nil
}

func evalUnion(st *store.Store, u Union, rows []Binding, sp *obs.Span) ([]Binding, error) {
	var out []Binding
	for _, row := range rows {
		left, err := evalPatterns(st, u.Left, []Binding{row.Clone()}, sp)
		if err != nil {
			return nil, err
		}
		right, err := evalPatterns(st, u.Right, []Binding{row.Clone()}, sp)
		if err != nil {
			return nil, err
		}
		out = append(out, left...)
		out = append(out, right...)
	}
	return out, nil
}

// evalBGP extends each solution through every triple pattern in order,
// recording one "pattern" span per triple pattern with the join's input
// and output cardinalities.
func evalBGP(st *store.Store, bgp BGP, rows []Binding, sp *obs.Span) ([]Binding, error) {
	for _, tp := range bgp.Triples {
		var psp *obs.Span
		if sp != nil {
			psp = sp.Child("pattern")
			psp.SetStr("tp", tp.String())
			psp.SetInt("in", int64(len(rows)))
		}
		var next []Binding
		for _, row := range rows {
			matches := matchPattern(st, tp, row)
			next = append(next, matches...)
		}
		rows = next
		psp.SetInt("out", int64(len(rows)))
		psp.End()
		if len(rows) == 0 {
			return nil, nil
		}
	}
	return rows, nil
}

// matchPattern returns the extensions of binding through one triple
// pattern against a store, in store insertion order: the legacy engine's
// join step, one Binding map per match.
func matchPattern(st *store.Store, tp TriplePattern, binding Binding) []Binding {
	dict := st.Dict()
	// resolve turns a pattern position into a store query id, or names the
	// variable a match binds there. ok is false when the position can
	// never match: a constant or bound term unknown to the dictionary.
	resolve := func(n Node) (id rdf.TermID, v string, ok bool) {
		t := n.Term
		if n.IsVar() {
			bound, has := binding[n.Var]
			if !has {
				return rdf.NoTerm, n.Var, true
			}
			t = bound
		}
		id, ok = dict.Lookup(t)
		return id, "", ok
	}
	sID, sVar, okS := resolve(tp.S)
	pID, pVar, okP := resolve(tp.P)
	oID, oVar, okO := resolve(tp.O)
	if !okS || !okP || !okO {
		return nil
	}
	var out []Binding
	st.MatchEach(sID, pID, oID, func(t rdf.TripleID) {
		// Same variable twice in one pattern (e.g. ?x ?p ?x): the matched
		// positions must agree. Id equality is term equality.
		if sVar != "" && (sVar == pVar && t.S != t.P || sVar == oVar && t.S != t.O) {
			return
		}
		if pVar != "" && pVar == oVar && t.P != t.O {
			return
		}
		nb := binding.Clone()
		if sVar != "" {
			nb[sVar] = dict.Term(t.S)
		}
		if pVar != "" {
			nb[pVar] = dict.Term(t.P)
		}
		if oVar != "" {
			nb[oVar] = dict.Term(t.O)
		}
		out = append(out, nb)
	})
	return out
}
