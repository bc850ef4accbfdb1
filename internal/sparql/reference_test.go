package sparql

import (
	"context"
	"fmt"
	"sort"

	"alex/internal/obs"
	"alex/internal/rdf"
	"alex/internal/store"
)

// This file is the reference model of the evaluator: the map-row engine —
// one Binding map per row, terms decoded at every join step, expressions
// evaluated by an Eval method per node — that internal/sparql shipped
// before the slot engine and kept as EvalCompat until the entry points
// were merged into (*Prepared).Eval. It is moved here verbatim and runs
// only under test: the equivalence harness (equiv_test.go), the ordering
// tests (orderkey_test.go) and the differential fuzz target
// (FuzzEvalEquivalence) compare the engine against it. Two things were
// added in the move: a context, looked at per group element and every
// cancelStride rows of a join, so that the fuzz target can end a fuzzed
// cross product; and the refExpr assertion where an Expr is evaluated,
// because the Expr interface no longer carries Eval. Keep it naive; it is
// the definition, not an implementation.

// Clone returns a copy of the binding.
func (b Binding) Clone() Binding {
	out := make(Binding, len(b)+1)
	for k, v := range b {
		out[k] = v
	}
	return out
}

// EvalCompat evaluates a parsed query through the map-row engine: one
// Binding map per row, terms decoded at every join step.
func EvalCompat(ctx context.Context, st *store.Store, q *Query) (*Result, error) {
	rows, err := evalPatterns(ctx, st, q.Patterns, []Binding{{}}, nil)
	if err != nil {
		return nil, err
	}
	return finalize(q, rows)
}

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
func evalPatterns(ctx context.Context, st *store.Store, patterns []Pattern, in []Binding, sp *obs.Span) ([]Binding, error) {
	rows := in
	for _, p := range patterns {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var err error
		stage := stageSpan(sp, p)
		stage.SetInt("in", int64(len(rows)))
		switch p := p.(type) {
		case BGP:
			rows, err = evalBGP(ctx, st, p, rows, stage)
		case Filter:
			rows = applyFilter(p.Expr, rows)
		case Optional:
			rows, err = evalOptional(ctx, st, p, rows, stage)
		case Union:
			rows, err = evalUnion(ctx, st, p, rows, stage)
		case Values:
			rows = evalValues(p, rows)
		case Exists:
			rows, err = evalExists(ctx, st, p, rows, stage)
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

func evalOptional(ctx context.Context, st *store.Store, opt Optional, rows []Binding, sp *obs.Span) ([]Binding, error) {
	var out []Binding
	for _, row := range rows {
		extended, err := evalPatterns(ctx, st, opt.Patterns, []Binding{row}, sp)
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
		v, err := bd.Expr.(refExpr).Eval(row)
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
func evalExists(ctx context.Context, st *store.Store, e Exists, rows []Binding, sp *obs.Span) ([]Binding, error) {
	out := rows[:0]
	for _, row := range rows {
		matches, err := evalPatterns(ctx, st, e.Patterns, []Binding{row.Clone()}, sp)
		if err != nil {
			return nil, err
		}
		if (len(matches) > 0) != e.Not {
			out = append(out, row)
		}
	}
	return out, nil
}

func evalUnion(ctx context.Context, st *store.Store, u Union, rows []Binding, sp *obs.Span) ([]Binding, error) {
	var out []Binding
	for _, row := range rows {
		left, err := evalPatterns(ctx, st, u.Left, []Binding{row.Clone()}, sp)
		if err != nil {
			return nil, err
		}
		right, err := evalPatterns(ctx, st, u.Right, []Binding{row.Clone()}, sp)
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
func evalBGP(ctx context.Context, st *store.Store, bgp BGP, rows []Binding, sp *obs.Span) ([]Binding, error) {
	for _, tp := range bgp.Triples {
		var psp *obs.Span
		if sp != nil {
			psp = sp.Child("pattern")
			psp.SetStr("tp", tp.String())
			psp.SetInt("in", int64(len(rows)))
		}
		var next []Binding
		for i, row := range rows {
			if i%cancelStride == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
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
	st.Now().MatchEach(sID, pID, oID, func(t rdf.TripleID) {
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

// evalPathPattern extends each solution through the path.
func evalPathPattern(st *store.Store, pp PathPattern, rows []Binding) ([]Binding, error) {
	var out []Binding
	for _, row := range rows {
		out = append(out, matchPath(st, pp, row)...)
	}
	return out, nil
}

// matchPath enumerates the (subject, object) pairs connected by the path
// that are compatible with the binding, preferring the bound end as the
// starting point.
func matchPath(st *store.Store, pp PathPattern, row Binding) []Binding {
	dict := st.Dict()
	resolveEnd := func(n Node) (rdf.TermID, string, bool) {
		if n.IsVar() {
			if t, bound := row[n.Var]; bound {
				id, ok := dict.Lookup(t)
				return id, "", ok
			}
			return rdf.NoTerm, n.Var, true
		}
		id, ok := dict.Lookup(n.Term)
		return id, "", ok
	}
	sID, sVar, okS := resolveEnd(pp.S)
	oID, oVar, okO := resolveEnd(pp.O)
	if !okS || !okO {
		return nil
	}
	var out []Binding
	emit := func(s, o rdf.TermID) {
		nb := row.Clone()
		if sVar != "" {
			nb[sVar] = dict.Term(s)
		}
		if oVar != "" {
			if sVar == oVar {
				// Same variable at both ends: require a self-loop.
				if s != o {
					return
				}
			} else {
				nb[oVar] = dict.Term(o)
			}
		}
		out = append(out, nb)
	}
	switch {
	case sID != rdf.NoTerm:
		targets := pathTargets(st.Now(), pp.P, sID, false)
		for _, o := range targets {
			if oID != rdf.NoTerm && o != oID {
				continue
			}
			emit(sID, o)
		}
	case oID != rdf.NoTerm:
		sources := pathTargets(st.Now(), pp.P, oID, true)
		for _, s := range sources {
			emit(s, oID)
		}
	default:
		// Both ends unbound: start from every subject in the store.
		for _, s := range st.Subjects() {
			for _, o := range pathTargets(st.Now(), pp.P, s, false) {
				emit(s, o)
			}
		}
	}
	return out
}

// The expression half of the reference: one Eval method per node, which
// the Expr interface carried while this engine shipped.
type refExpr interface {
	Eval(b Binding) (rdf.Term, error)
}

// Eval returns the bound term or an error when unbound.
func (e VarExpr) Eval(b Binding) (rdf.Term, error) {
	t, ok := b[e.Name]
	if !ok {
		return rdf.Term{}, fmt.Errorf("unbound variable ?%s", e.Name)
	}
	return t, nil
}

// Eval returns the constant.
func (e ConstExpr) Eval(Binding) (rdf.Term, error) { return e.Term, nil }

// Eval compares numerically when both sides are numeric, otherwise by
// string value (with full term equality for = / !=).
func (e CmpExpr) Eval(b Binding) (rdf.Term, error) {
	l, err := e.Left.(refExpr).Eval(b)
	if err != nil {
		return rdf.Term{}, err
	}
	r, err := e.Right.(refExpr).Eval(b)
	if err != nil {
		return rdf.Term{}, err
	}
	return cmpTerms(e.Op, l, r)
}

// Eval evaluates both sides as numbers; non-numeric operands or division by
// zero are evaluation errors (error-as-false in FILTER, unbound in BIND).
func (e ArithExpr) Eval(b Binding) (rdf.Term, error) {
	l, err := e.Left.(refExpr).Eval(b)
	if err != nil {
		return rdf.Term{}, err
	}
	r, err := e.Right.(refExpr).Eval(b)
	if err != nil {
		return rdf.Term{}, err
	}
	return arithTerms(e.Op, l, r)
}

// Eval applies SPARQL's error-tolerant boolean logic: for ||, a true side
// wins even if the other errors; for &&, a false side wins likewise.
func (e LogicExpr) Eval(b Binding) (rdf.Term, error) {
	lv, lerr := evalBool(e.Left, b)
	rv, rerr := evalBool(e.Right, b)
	return logicCombine(e.Op, lv, lerr, rv, rerr)
}

func evalBool(e Expr, b Binding) (bool, error) {
	t, err := e.(refExpr).Eval(b)
	if err != nil {
		return false, err
	}
	return EBV(t)
}

// Eval negates the effective boolean value of the inner expression.
func (e NotExpr) Eval(b Binding) (rdf.Term, error) {
	v, err := evalBool(e.Inner, b)
	if err != nil {
		return rdf.Term{}, err
	}
	return boolTerm(!v), nil
}

// Eval dispatches on the builtin name.
func (e CallExpr) Eval(b Binding) (rdf.Term, error) {
	if e.Name == "BOUND" {
		if len(e.Args) != 1 {
			return rdf.Term{}, fmt.Errorf("BOUND takes 1 argument")
		}
		v, ok := e.Args[0].(VarExpr)
		if !ok {
			return rdf.Term{}, fmt.Errorf("BOUND requires a variable")
		}
		_, bound := b[v.Name]
		return boolTerm(bound), nil
	}
	args := make([]rdf.Term, len(e.Args))
	for i, a := range e.Args {
		t, err := a.(refExpr).Eval(b)
		if err != nil {
			return rdf.Term{}, err
		}
		args[i] = t
	}
	if e.Name == "REGEX" {
		// The reference has no evaluation state to memoise in: it compiles
		// per call, and the engine's compiled patterns are tested against it.
		text, k, err := regexArgs(args)
		if err != nil {
			return rdf.Term{}, err
		}
		return compileRegex(k).match(text)
	}
	return callBuiltin(e.Name, args)
}
