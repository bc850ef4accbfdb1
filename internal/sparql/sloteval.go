package sparql

import (
	"context"
	"encoding/binary"
	"fmt"
	"sort"

	"alex/internal/obs"
	"alex/internal/rdf"
	"alex/internal/store"
)

// This file is the evaluation engine: the whole pipeline from pattern
// matching through DISTINCT runs on fixed-width []rdf.TermID rows over the
// solver's dictionary ids, and terms are decoded only where a lexical form
// is genuinely needed (expression evaluation, ORDER BY keys, and the final
// materialization). The map-row engine it replaced is the reference model
// the tests compare it against (reference_test.go).

// run executes one evaluation of q through a bound slot program.
func (p *slotProg) run(ctx context.Context, q *Query, tr *obs.Trace) (*SlotResult, error) {
	sp := tr.Root()
	in := NewRows(p.width(), 1)
	in.pushEmpty()
	rows, err := p.evalSlotPatterns(ctx, q.Patterns, in, sp)
	if err != nil {
		tr.Finish()
		return nil, err
	}
	fin := sp.Child("finalize")
	fin.SetInt("in", int64(rows.n))
	res, err := p.finalizeSlots(ctx, q, rows)
	if err == nil {
		res.materialized = p.materialized
		fin.SetInt("out", int64(res.Len()+len(res.Triples)))
	}
	fin.End()
	tr.Finish()
	return res, err
}

// SlotResult is a query result still in id space: fixed-width rows of
// dictionary (or query-overflow) ids plus the id space to decode them.
// Vars is the projection; row columns are named by rowVars, which adds the
// grouping variables of aggregate queries (the reference model also
// carries those through).
type SlotResult struct {
	Vars    []string
	Triples []rdf.Triple

	rowVars      []string
	rows         *Rows
	ids          *IDSpace
	materialized *obs.Counter
}

// Len returns the number of solution rows.
func (r *SlotResult) Len() int {
	if r.rows == nil {
		return 0
	}
	return r.rows.n
}

// AskResult interprets the result of an ASK query.
func (r *SlotResult) AskResult() bool { return r.Len() > 0 }

// Provenance returns row i's provenance column: rdf.NoTerm when the
// solver has none or the row used nothing.
func (r *SlotResult) Provenance(i int) rdf.TermID {
	if r.rows.w == len(r.rowVars) {
		return rdf.NoTerm
	}
	return r.rows.Row(i)[len(r.rowVars)]
}

// RowVars names the columns of every row: the projection, plus the
// grouping variables an aggregate query carries. A serializer reads rows
// through RowVars and Term without materializing Bindings.
func (r *SlotResult) RowVars() []string { return r.rowVars }

// Term decodes column j of row i; ok is false where the row leaves the
// variable unbound.
func (r *SlotResult) Term(i, j int) (t rdf.Term, ok bool) {
	id := r.rows.data[i*r.rows.w+j]
	if id == rdf.NoTerm {
		return rdf.Term{}, false
	}
	return r.ids.Term(id), true
}

// Materialize decodes every row into the public Binding representation.
func (r *SlotResult) Materialize() *Result {
	res := &Result{Vars: r.Vars, Triples: r.Triples}
	if r.rows == nil {
		return res
	}
	res.Rows = make([]Binding, r.rows.n)
	for i := range res.Rows {
		res.Rows[i] = r.Binding(i)
	}
	return res
}

// Binding decodes row i into the public Binding representation.
func (r *SlotResult) Binding(i int) Binding {
	row := r.rows.Row(i)[:len(r.rowVars)]
	b := make(Binding, len(row))
	for j, id := range row {
		if id != rdf.NoTerm {
			b[r.rowVars[j]] = r.ids.Term(id)
		}
	}
	r.materialized.Inc()
	return b
}

// evalSlotPatterns folds each group element over the current solution
// set, recording one child span per element under sp (nil disables
// tracing) and each stage's output cardinality.
func (p *slotProg) evalSlotPatterns(ctx context.Context, patterns []Pattern, in *Rows, sp *obs.Span) (*Rows, error) {
	rows := in
	for _, pat := range patterns {
		var err error
		stage := stageSpan(sp, pat)
		stage.SetInt("in", int64(rows.n))
		switch pat := pat.(type) {
		case BGP:
			rows, err = p.solveBGP(ctx, pat, rows, stage)
		case Filter:
			rows = p.applySlotFilter(pat.Expr, rows)
		case Optional:
			rows, err = p.evalSlotOptional(ctx, pat, rows, stage)
		case Union:
			rows, err = p.evalSlotUnion(ctx, pat, rows, stage)
		case Values:
			rows, err = p.evalSlotValues(ctx, pat, rows)
		case Exists:
			rows, err = p.evalSlotExists(ctx, pat, rows, stage)
		case PathPattern:
			rows, err = p.solver.SolvePath(ctx, p.lay, p.ids, pat, rows)
		case Bind:
			rows = p.evalSlotBind(pat, rows)
		default:
			err = fmt.Errorf("sparql: unknown pattern type %T", pat)
		}
		if err != nil {
			stage.SetInt("out", 0)
			stage.End()
			return nil, err
		}
		stage.SetInt("out", int64(rows.n))
		stage.End()
		p.observeStage(pat, rows.n)
	}
	return rows, nil
}

// observeStage records a stage's output cardinality into the per-stage
// histogram (sparql.stage.<stage>.rows), resolving each instrument once
// per query.
func (p *slotProg) observeStage(pat Pattern, n int) {
	if p.reg == nil {
		return
	}
	name := stageName(pat)
	h, ok := p.stageHists[name]
	if !ok {
		if p.stageHists == nil {
			p.stageHists = map[string]*obs.Histogram{}
		}
		h = p.reg.Histogram(obs.SparqlStageRows(name))
		p.stageHists[name] = h
	}
	h.Observe(int64(n))
}

// solveBGP hands a basic graph pattern to the solver: whole, for the solver
// to order, or under DisablePlan one pattern at a time in written order,
// which leaves it nothing to reorder.
func (p *slotProg) solveBGP(ctx context.Context, bgp BGP, rows *Rows, sp *obs.Span) (*Rows, error) {
	if !p.written || len(bgp.Triples) < 2 {
		return p.solver.SolveBGP(ctx, p.lay, p.ids, bgp, rows, sp)
	}
	for i := range bgp.Triples {
		var err error
		rows, err = p.solver.SolveBGP(ctx, p.lay, p.ids, BGP{Triples: bgp.Triples[i : i+1]}, rows, sp)
		if err != nil || rows.n == 0 {
			return rows, err
		}
	}
	return rows, nil
}

// storeSolver answers basic graph patterns and property paths from one
// store's indexes, read through one view: the single-store Solver.
type storeSolver struct {
	v        store.View
	reorders *obs.Counter
}

// StoreSolver returns the Solver that answers every pattern from v, the
// store at one generation, recording into the store's registry.
func StoreSolver(v store.View) Solver {
	return &storeSolver{v: v, reorders: v.Store().Registry().Counter(obs.SparqlPlanReorders)}
}

// cancelStride is how many rows the store solver (and a VALUES join) reads
// and writes between looks at its context: a request's cancelCtx.Err()
// takes a mutex, so not every row. Written rows count because one input
// row of a cross product writes as many as the store has triples; what a
// single input row writes is the one stretch that is not interrupted.
const cancelStride = 1024

func (s *storeSolver) Dict() *rdf.Dict                         { return s.v.Store().Dict() }
func (s *storeSolver) Registry() *obs.Registry                 { return s.v.Store().Registry() }
func (s *storeSolver) Provenance() bool                        { return false }
func (s *storeSolver) MergeProvenance([]rdf.TermID) rdf.TermID { return rdf.NoTerm }

// SolveBGP extends each solution through every triple pattern in
// planned order, recording one "pattern" span per triple pattern plus a
// "plan" span when the planner reordered.
func (s *storeSolver) SolveBGP(ctx context.Context, lay *SlotLayout, ids *IDSpace, bgp BGP, in *Rows, sp *obs.Span) (*Rows, error) {
	cs := make([]SlotPattern, len(bgp.Triples))
	for i, tp := range bgp.Triples {
		cs[i] = lay.Compile(ids, tp)
	}
	order := s.planBGP(lay, bgp.Triples, cs, in.Bound())
	if planReordered(order) {
		s.reorders.Inc()
		if sp != nil {
			ps := sp.Child("plan")
			idx, text := renderPlan(bgp.Triples, order)
			ps.SetStr("order", idx)
			ps.SetStr("patterns", text)
			ps.End()
		}
	}
	rows := in
	exec := &bgpExec{}
	emit := exec.emit
	for _, j := range order {
		tp := bgp.Triples[j]
		var psp *obs.Span
		if sp != nil {
			psp = sp.Child("pattern")
			psp.SetStr("tp", tp.String())
			psp.SetInt("in", int64(rows.n))
		}
		next := NewRows(in.w, rows.n)
		exec.out = next
		exec.c = cs[j]
		due := 0 // rows read + written at which to look at ctx next
		for i := 0; i < rows.n; i++ {
			if i+next.n >= due {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				due = i + next.n + cancelStride
			}
			r := rows.Row(i)
			sQ, pQ, oQ := exec.c.Query(r)
			// An overflow id (an unknown constant, a term the query
			// minted) is in no stored triple.
			if sQ >= overflowBase || pQ >= overflowBase || oQ >= overflowBase {
				continue
			}
			exec.r = r
			s.v.MatchEach(sQ, pQ, oQ, emit)
		}
		rows = next
		psp.SetInt("out", int64(rows.n))
		psp.End()
		if rows.n == 0 {
			return rows, nil
		}
	}
	return rows, nil
}

// bgpExec is the per-pattern match sink: emit appends the current row
// extended by one matched triple. A struct (rather than a closure over
// the row) so the callback is allocated once per pattern, not once per
// row.
type bgpExec struct {
	out *Rows
	r   []rdf.TermID
	c   SlotPattern
}

func (e *bgpExec) emit(t rdf.TripleID) { e.c.Extend(e.out, e.r, t) }

// applySlotFilter compacts rows in place, keeping those whose expression
// evaluates to true (errors reject, per SPARQL).
func (p *slotProg) applySlotFilter(e Expr, rows *Rows) *Rows {
	return rows.retain(func(r []rdf.TermID) bool {
		v, err := p.evalBoolRow(e, r)
		return err == nil && v
	})
}

// resetSingle reuses a one-row scratch set for per-row sub-evaluation
// (OPTIONAL/UNION/EXISTS). The row is copied, so in-place operators in
// the sub-group cannot corrupt the parent set.
func resetSingle(single *Rows, r []rdf.TermID) *Rows {
	single.n = 0
	single.data = single.data[:0]
	single.Push(r)
	return single
}

func (p *slotProg) evalSlotOptional(ctx context.Context, opt Optional, rows *Rows, sp *obs.Span) (*Rows, error) {
	out := NewRows(p.width(), rows.n)
	single := NewRows(p.width(), 1)
	for i := 0; i < rows.n; i++ {
		extended, err := p.evalSlotPatterns(ctx, opt.Patterns, resetSingle(single, rows.Row(i)), sp)
		if err != nil {
			return nil, err
		}
		if extended.n == 0 {
			out.Push(rows.Row(i))
		} else {
			out.data = append(out.data, extended.data...)
			out.n += extended.n
		}
	}
	return out, nil
}

func (p *slotProg) evalSlotUnion(ctx context.Context, u Union, rows *Rows, sp *obs.Span) (*Rows, error) {
	out := NewRows(p.width(), 2*rows.n)
	single := NewRows(p.width(), 1)
	for i := 0; i < rows.n; i++ {
		for _, branch := range [2][]Pattern{u.Left, u.Right} {
			res, err := p.evalSlotPatterns(ctx, branch, resetSingle(single, rows.Row(i)), sp)
			if err != nil {
				return nil, err
			}
			out.data = append(out.data, res.data...)
			out.n += res.n
		}
	}
	return out, nil
}

// evalSlotValues joins each solution with every row of the data block. It
// looks at ctx on the store solver's stride of rows read plus written, and
// reserves for the larger of its two inputs, not their product: chained
// blocks multiply, and what a product would reserve is no bound on what a
// request may take.
func (p *slotProg) evalSlotValues(ctx context.Context, v Values, rows *Rows) (*Rows, error) {
	slots := make([]int, len(v.Vars))
	for i, name := range v.Vars {
		slots[i] = p.lay.slots[name]
	}
	// Intern the data block once; UNDEF stays the zero id.
	dataIDs := make([][]rdf.TermID, len(v.Rows))
	for j, data := range v.Rows {
		ids := make([]rdf.TermID, len(data))
		for i, t := range data {
			if !t.IsZero() {
				ids[i] = p.ids.ID(t)
			}
		}
		dataIDs[j] = ids
	}
	out := NewRows(p.width(), max(rows.n, len(v.Rows)))
	due := 0
	for i := 0; i < rows.n; i++ {
		if i+out.n >= due {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			due = i + out.n + cancelStride
		}
		r := rows.Row(i)
		for _, data := range dataIDs {
			nr := out.Push(r)
			ok := true
			for k, s := range slots {
				id := data[k]
				if id == rdf.NoTerm {
					continue
				}
				if nr[s] != rdf.NoTerm {
					if nr[s] != id {
						ok = false
						break
					}
					continue
				}
				nr[s] = id
			}
			if !ok {
				out.pop()
			}
		}
	}
	return out, nil
}

func (p *slotProg) evalSlotExists(ctx context.Context, e Exists, rows *Rows, sp *obs.Span) (*Rows, error) {
	single := NewRows(p.width(), 1)
	var err error
	rows.retain(func(r []rdf.TermID) bool {
		if err != nil {
			return false
		}
		var matches *Rows
		matches, err = p.evalSlotPatterns(ctx, e.Patterns, resetSingle(single, r), sp)
		return err == nil && (matches.n > 0) != e.Not
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// evalSlotBind extends each solution with the bound expression value; an
// evaluation error leaves the variable unbound for that solution, and a
// BIND onto an already-bound variable filters for equality (a simplified
// reading of the SPARQL restriction that the variable be fresh).
func (p *slotProg) evalSlotBind(bd Bind, rows *Rows) *Rows {
	s := p.lay.slots[bd.As]
	return rows.retain(func(r []rdf.TermID) bool {
		v, err := p.evalExprRow(bd.Expr, r)
		if err != nil {
			return true
		}
		id := p.ids.ID(v)
		if r[s] == rdf.NoTerm {
			r[s] = id
		}
		return r[s] == id
	})
}

// SolvePath extends each solution through a property path, reusing the
// id-space BFS of pathTargets and binding ids directly into slots.
func (s *storeSolver) SolvePath(ctx context.Context, lay *SlotLayout, _ *IDSpace, pp PathPattern, rows *Rows) (*Rows, error) {
	out := NewRows(rows.w, rows.n)
	due := 0
	for i := 0; i < rows.n; i++ {
		if i+out.n >= due {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			due = i + out.n + cancelStride
		}
		r := rows.Row(i)
		sID, sSlot, okS := s.resolvePathEnd(lay, pp.S, r)
		oID, oSlot, okO := s.resolvePathEnd(lay, pp.O, r)
		if !okS || !okO {
			continue
		}
		emit := func(sub, o rdf.TermID) {
			nr := out.Push(r)
			if sSlot >= 0 {
				nr[sSlot] = sub
			}
			if oSlot >= 0 {
				if oSlot == sSlot {
					// Same variable at both ends: require a self-loop.
					if sub != o {
						out.pop()
						return
					}
				} else {
					nr[oSlot] = o
				}
			}
		}
		switch {
		case sID != rdf.NoTerm:
			for _, o := range pathTargets(s.v, pp.P, sID, false) {
				if oID != rdf.NoTerm && o != oID {
					continue
				}
				emit(sID, o)
			}
		case oID != rdf.NoTerm:
			for _, sub := range pathTargets(s.v, pp.P, oID, true) {
				emit(sub, oID)
			}
		default:
			for _, sub := range s.v.Subjects() {
				for _, o := range pathTargets(s.v, pp.P, sub, false) {
					emit(sub, o)
				}
			}
		}
	}
	return out, nil
}

// resolvePathEnd resolves one end of a path pattern: a bound dictionary
// id (slot == -1), or an unbound variable's slot. ok is false when the
// end is a constant or bound term outside the dictionary — closures over
// the store cannot reach it.
func (s *storeSolver) resolvePathEnd(lay *SlotLayout, n Node, r []rdf.TermID) (id rdf.TermID, slot int, ok bool) {
	if n.IsVar() {
		sl := lay.slots[n.Var]
		if got := r[sl]; got != rdf.NoTerm {
			if got >= overflowBase {
				return rdf.NoTerm, -1, false
			}
			return got, -1, true
		}
		return rdf.NoTerm, sl, true
	}
	cid, cok := s.v.Store().Dict().Lookup(n.Term)
	if !cok {
		return rdf.NoTerm, -1, false
	}
	return cid, -1, true
}

// finalizeSlots applies aggregation, ORDER BY, projection, DISTINCT,
// OFFSET and LIMIT — all still on slot rows.
func (p *slotProg) finalizeSlots(ctx context.Context, q *Query, rows *Rows) (*SlotResult, error) {
	if q.Ask {
		res := &SlotResult{ids: p.ids}
		if rows.n > 0 {
			// The witness row: no variables, only its provenance.
			res.rows = NewRows(p.hidden, 1)
			res.rows.Push(rows.Row(0)[len(p.lay.vars):])
		}
		return res, nil
	}
	if q.Construct != nil {
		rows = sliceSlots(rows, q.Offset, q.Limit)
		return &SlotResult{Triples: p.instantiateSlots(q.Construct, rows), ids: p.ids}, nil
	}
	if len(q.Aggregates) > 0 {
		return p.aggregateSlots(ctx, q, rows)
	}
	vars := q.Vars
	if len(vars) == 0 {
		vars = q.AllVars()
	}
	if len(q.OrderBy) > 0 {
		var err error
		if rows, err = p.sortSlots(ctx, rows, q.OrderBy, p.lay.Slot); err != nil {
			return nil, err
		}
	}
	cols := make([]int, len(vars))
	for i, v := range vars {
		cols[i] = p.lay.Slot(v)
	}
	proj := NewRows(len(vars)+p.hidden, rows.n)
	for i := 0; i < rows.n; i++ {
		r := rows.Row(i)
		nr := proj.pushEmpty()
		for j, c := range cols {
			if c >= 0 {
				nr[j] = r[c]
			}
		}
		copy(nr[len(vars):], r[len(p.lay.vars):])
	}
	if q.Distinct {
		proj = distinctSlots(proj, len(vars))
	}
	proj = sliceSlots(proj, q.Offset, q.Limit)
	return &SlotResult{Vars: vars, rowVars: vars, rows: proj, ids: p.ids}, nil
}

// distinctSlots dedupes rows in place by the raw tuple of their first
// keyW slots — 4 bytes per slot, no term decoding or stringification. A
// provenance column beyond keyW is not part of the key: the first row of
// each distinct tuple is kept, with its own provenance.
func distinctSlots(rows *Rows, keyW int) *Rows {
	seen := make(map[string]struct{}, rows.n)
	key := make([]byte, 4*keyW)
	return rows.retain(func(r []rdf.TermID) bool {
		for j, id := range r[:keyW] {
			binary.LittleEndian.PutUint32(key[4*j:], uint32(id))
		}
		if _, dup := seen[string(key)]; dup {
			return false
		}
		seen[string(key)] = struct{}{}
		return true
	})
}

// sliceSlots applies OFFSET then LIMIT.
func sliceSlots(rows *Rows, offset, limit int) *Rows {
	if offset > 0 {
		if offset >= rows.n {
			return &Rows{w: rows.w}
		}
		rows.data = rows.data[offset*rows.w:]
		rows.n -= offset
	}
	if limit >= 0 && limit < rows.n {
		rows.n = limit
		rows.data = rows.data[:limit*rows.w]
	}
	return rows
}

// aggregateSlots groups rows by their GROUP BY slot tuple and evaluates
// the aggregates per group. Row columns cover the grouping variables plus
// the aliases; groups are emitted sorted by the stringified group key —
// the reference model's order, which eval.golden pins row for row. The
// pass that keys rows to groups looks at ctx every cancelStride rows.
func (p *slotProg) aggregateSlots(ctx context.Context, q *Query, rows *Rows) (*SlotResult, error) {
	gSlots := make([]int, len(q.GroupBy))
	for i, v := range q.GroupBy {
		gSlots[i] = p.lay.Slot(v)
	}
	type group struct {
		sortKey string
		first   int // index of the group's first row
		rows    []int
	}
	byKey := map[string]*group{}
	var order []*group
	key := make([]byte, 4*len(gSlots))
	for i := 0; i < rows.n; i++ {
		if i%cancelStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		r := rows.Row(i)
		for j, s := range gSlots {
			var id rdf.TermID
			if s >= 0 {
				id = r[s]
			}
			binary.LittleEndian.PutUint32(key[4*j:], uint32(id))
		}
		g, ok := byKey[string(key)]
		if !ok {
			g = &group{sortKey: p.groupSortKey(q.GroupBy, r), first: i}
			byKey[string(key)] = g
			order = append(order, g)
		}
		g.rows = append(g.rows, i)
	}
	// A grouped query over zero rows yields zero groups; an ungrouped
	// aggregate query over zero rows yields one all-empty group (COUNT=0).
	if len(order) == 0 && len(q.GroupBy) == 0 {
		order = append(order, &group{first: -1})
	}
	sort.SliceStable(order, func(a, b int) bool { return order[a].sortKey < order[b].sortKey })

	// Output columns: grouping variables then aliases, deduplicated.
	var rowVars []string
	cols := map[string]int{}
	addCol := func(v string) {
		if _, ok := cols[v]; !ok {
			cols[v] = len(rowVars)
			rowVars = append(rowVars, v)
		}
	}
	for _, v := range q.GroupBy {
		addCol(v)
	}
	for _, a := range q.Aggregates {
		addCol(a.As)
	}

	proj := NewRows(len(rowVars)+p.hidden, len(order))
	var provs []rdf.TermID
	for _, g := range order {
		nr := proj.pushEmpty()
		if p.hidden > 0 {
			provs = provs[:0]
			for _, i := range g.rows {
				provs = append(provs, rows.Row(i)[len(p.lay.vars)])
			}
			nr[len(rowVars)] = p.solver.MergeProvenance(provs)
		}
		if g.first >= 0 {
			first := rows.Row(g.first)
			for gi, v := range q.GroupBy {
				if s := gSlots[gi]; s >= 0 && first[s] != rdf.NoTerm {
					nr[cols[v]] = first[s]
				}
			}
		}
		for _, agg := range q.Aggregates {
			t, err := p.evalAggregateSlots(agg, rows, g.rows)
			if err != nil {
				return nil, err
			}
			if !t.IsZero() {
				nr[cols[agg.As]] = p.ids.ID(t)
			}
		}
	}
	if len(q.OrderBy) > 0 {
		var err error
		proj, err = p.sortSlots(ctx, proj, q.OrderBy, func(v string) int {
			if c, ok := cols[v]; ok {
				return c
			}
			return -1
		})
		if err != nil {
			return nil, err
		}
	}
	proj = sliceSlots(proj, q.Offset, q.Limit)
	return &SlotResult{Vars: aggregateVars(q), rowVars: rowVars, rows: proj, ids: p.ids}, nil
}

// groupSortKey renders the string group key (term N-Triples forms joined
// by 0x1f) that orders group emission — once per group, not per row.
func (p *slotProg) groupSortKey(vars []string, r []rdf.TermID) string {
	var b []byte
	for _, v := range vars {
		if id := p.get(r, v); id != rdf.NoTerm {
			b = append(b, p.ids.Term(id).String()...)
		}
		b = append(b, 0x1f)
	}
	return string(b)
}

// evalAggregateSlots computes one aggregate over a group, staying in id
// space for COUNT (including DISTINCT, since id equality is term
// equality) and decoding only the values MIN/MAX/SUM/AVG actually fold.
func (p *slotProg) evalAggregateSlots(agg Aggregate, rows *Rows, group []int) (rdf.Term, error) {
	s := -1
	if agg.Var != "" {
		s = p.lay.Slot(agg.Var)
	}
	if agg.Func == "COUNT" {
		n := 0
		switch {
		case agg.Var == "":
			n = len(group)
		case agg.Distinct:
			seen := map[rdf.TermID]struct{}{}
			for _, i := range group {
				if s >= 0 {
					if id := rows.Row(i)[s]; id != rdf.NoTerm {
						seen[id] = struct{}{}
					}
				}
			}
			n = len(seen)
		default:
			for _, i := range group {
				if s >= 0 && rows.Row(i)[s] != rdf.NoTerm {
					n++
				}
			}
		}
		return rdf.NewInt(int64(n)), nil
	}

	var terms []rdf.Term
	seen := map[rdf.TermID]struct{}{}
	for _, i := range group {
		if s < 0 {
			break
		}
		id := rows.Row(i)[s]
		if id == rdf.NoTerm {
			continue
		}
		if agg.Distinct {
			if _, dup := seen[id]; dup {
				continue
			}
			seen[id] = struct{}{}
		}
		terms = append(terms, p.ids.Term(id))
	}
	if len(terms) == 0 {
		return rdf.Term{}, nil
	}
	switch agg.Func {
	case "MIN", "MAX":
		best, bestKey := terms[0], newSortKey(terms[0])
		for _, t := range terms[1:] {
			k := newSortKey(t)
			c := k.compare(&bestKey)
			if (agg.Func == "MIN" && c < 0) || (agg.Func == "MAX" && c > 0) {
				best, bestKey = t, k
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

// instantiateSlots substitutes each solution into the CONSTRUCT template,
// deduplicating on id triples (constants interned into the query's id
// space once) and decoding each distinct triple a single time.
func (p *slotProg) instantiateSlots(template []TriplePattern, rows *Rows) []rdf.Triple {
	type tNode struct {
		slot int
		id   rdf.TermID
	}
	ctpl := make([]struct{ s, p, o tNode }, len(template))
	conv := func(n Node) tNode {
		if n.IsVar() {
			return tNode{slot: p.lay.Slot(n.Var)}
		}
		return tNode{slot: -1, id: p.ids.ID(n.Term)}
	}
	for i, tp := range template {
		ctpl[i].s, ctpl[i].p, ctpl[i].o = conv(tp.S), conv(tp.P), conv(tp.O)
	}
	resolve := func(n tNode, r []rdf.TermID) rdf.TermID {
		if n.slot < 0 {
			return n.id
		}
		return r[n.slot]
	}
	var out []rdf.Triple
	seen := map[[3]rdf.TermID]struct{}{}
	for i := 0; i < rows.n; i++ {
		r := rows.Row(i)
		for _, tp := range ctpl {
			k := [3]rdf.TermID{resolve(tp.s, r), resolve(tp.p, r), resolve(tp.o, r)}
			if k[0] == rdf.NoTerm || k[1] == rdf.NoTerm || k[2] == rdf.NoTerm {
				continue
			}
			if _, dup := seen[k]; dup {
				continue
			}
			seen[k] = struct{}{}
			s, pt, o := p.ids.Term(k[0]), p.ids.Term(k[1]), p.ids.Term(k[2])
			if s.IsLiteral() || !pt.IsIRI() || o.IsZero() || s.IsZero() {
				continue
			}
			out = append(out, rdf.Triple{S: s, P: pt, O: o})
		}
	}
	return out
}
