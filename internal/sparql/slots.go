package sparql

import (
	"context"
	"sync"

	"alex/internal/obs"
	"alex/internal/rdf"
)

// This file holds the data layout of the slot-based evaluator: the
// per-query id space (the store dictionary plus an overflow table for
// terms minted during evaluation) and the flat fixed-width row storage
// that replaces per-row Binding maps in the query hot path.

// overflowBase is the first id of the per-query overflow range. Store
// dictionaries assign ids densely from 1, so any id at or above this
// threshold was minted by the query itself (VALUES data, BIND results,
// aggregate outputs) and can never match a stored triple.
const overflowBase rdf.TermID = 1 << 31

// IDSpace maps terms to ids and back for one query evaluation. Ids below
// overflowBase come from the shared store dictionary (read-only; the query
// never interns into it); terms unknown to the dictionary get overflow ids
// local to the evaluation. Within one IDSpace, id equality is term
// equality, which is what lets joins, DISTINCT and dedupe run on raw
// uint32 tuples. A Solver whose sources speak terms (a remote endpoint)
// converts at its wire boundary through the evaluation's IDSpace, possibly
// from several bound-join workers at once, so the overflow table is
// locked; dictionary ids never take the lock.
type IDSpace struct {
	dict *rdf.Dict

	mu       sync.Mutex
	overflow []rdf.Term              // overflow id i+overflowBase -> term
	ids      map[rdf.Term]rdf.TermID // overflow reverse map
}

func newIDSpace(dict *rdf.Dict) *IDSpace {
	return &IDSpace{dict: dict}
}

// ID returns the id of t, assigning an overflow id when the dictionary
// does not know the term.
func (s *IDSpace) ID(t rdf.Term) rdf.TermID {
	if id, ok := s.dict.Lookup(t); ok {
		return id
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if id, ok := s.ids[t]; ok {
		return id
	}
	if s.ids == nil {
		s.ids = make(map[rdf.Term]rdf.TermID)
	}
	id := overflowBase + rdf.TermID(len(s.overflow))
	s.overflow = append(s.overflow, t)
	s.ids[t] = id
	return id
}

// Term decodes an id. The zero id decodes to the zero term (unbound).
func (s *IDSpace) Term(id rdf.TermID) rdf.Term {
	if id == rdf.NoTerm {
		return rdf.Term{}
	}
	if id >= overflowBase {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.overflow[id-overflowBase]
	}
	return s.dict.Term(id)
}

// InDict reports whether id names a dictionary term, i.e. one a stored
// triple can carry; overflow ids were minted by the evaluation itself.
func (s *IDSpace) InDict(id rdf.TermID) bool { return id < overflowBase }

// Rows is a set of fixed-width solution rows over one flat backing
// array: row i occupies data[i*w : (i+1)*w], one slot per query variable,
// rdf.NoTerm marking an unbound slot. Appending rows only ever grows the
// single backing slice, so an operator's whole output costs O(log n)
// allocations instead of one map per row.
type Rows struct {
	w    int
	n    int
	data []rdf.TermID
}

// NewRows returns an empty set of w-wide rows with room for capRows.
func NewRows(w, capRows int) *Rows {
	return &Rows{w: w, data: make([]rdf.TermID, 0, w*capRows)}
}

// Len returns the number of rows.
func (rs *Rows) Len() int { return rs.n }

// Width returns the number of columns of every row.
func (rs *Rows) Width() int { return rs.w }

// Row returns row i; writes through it change the set.
func (rs *Rows) Row(i int) []rdf.TermID {
	return rs.data[i*rs.w : (i+1)*rs.w : (i+1)*rs.w]
}

// Bound reports, per column, whether any row binds it: what a planner
// counts as already bound when a BGP starts.
func (rs *Rows) Bound() []bool {
	bound := make([]bool, rs.w)
	for i := 0; i < rs.n; i++ {
		for j, id := range rs.Row(i) {
			if id != rdf.NoTerm {
				bound[j] = true
			}
		}
	}
	return bound
}

// Push appends a copy of src (a row of the same width) and returns the
// appended row for in-place slot writes.
func (rs *Rows) Push(src []rdf.TermID) []rdf.TermID {
	rs.data = append(rs.data, src...)
	rs.n++
	return rs.data[(rs.n-1)*rs.w:]
}

// retain keeps, in place and in order, the rows keep reports true for.
func (rs *Rows) retain(keep func(r []rdf.TermID) bool) *Rows {
	out := 0
	for i := 0; i < rs.n; i++ {
		if r := rs.Row(i); keep(r) {
			if out != i {
				copy(rs.data[out*rs.w:(out+1)*rs.w], r)
			}
			out++
		}
	}
	rs.n = out
	rs.data = rs.data[:out*rs.w]
	return rs
}

// pop drops the most recently pushed row (used to retract a row whose
// same-variable consistency check failed after the copy).
func (rs *Rows) pop() {
	rs.n--
	rs.data = rs.data[:rs.n*rs.w]
}

// pushEmpty appends an all-unbound row.
func (rs *Rows) pushEmpty() []rdf.TermID {
	for i := 0; i < rs.w; i++ {
		rs.data = append(rs.data, rdf.NoTerm)
	}
	rs.n++
	return rs.data[(rs.n-1)*rs.w:]
}

// Solver is the engine's one data-access seam, at basic-graph-pattern
// granularity: everything above it (OPTIONAL, UNION, FILTER, aggregates,
// ORDER BY, DISTINCT …) is the same algebra whether the triples live in one
// store or behind a federation of sources. The store-backed solver
// (StoreSolver) is this package's own; internal/fed implements the second.
type Solver interface {
	// Dict is the dictionary whose ids the solver's rows carry.
	Dict() *rdf.Dict
	// Registry is where the evaluation records its own instruments (stage
	// cardinalities, rows materialized); nil records nothing.
	Registry() *obs.Registry
	// SolveBGP extends every row of in through the patterns of bgp. Rows
	// are in.Width() wide: lay's variable slots first, then the
	// provenance column if the solver has one. in is not modified. ctx is
	// the evaluation's: a solver returns ctx.Err() once it is done, and
	// looks often enough that a join cannot outlive its request for long.
	SolveBGP(ctx context.Context, lay *SlotLayout, ids *IDSpace, bgp BGP, in *Rows, sp *obs.Span) (*Rows, error)
	// SolvePath extends every row of in through a property path, under
	// ctx like SolveBGP.
	SolvePath(ctx context.Context, lay *SlotLayout, ids *IDSpace, pp PathPattern, in *Rows) (*Rows, error)
	// Provenance reports whether rows carry one hidden trailing column
	// recording how the solver derived them (fed: the id of the sameAs
	// link set a row used; rdf.NoTerm for none). The engine copies the
	// column with its row, leaves it out of projection, DISTINCT and
	// grouping keys, and gives each aggregate group MergeProvenance of its
	// rows' values.
	Provenance() bool
	// MergeProvenance combines the provenance of the rows aggregated into
	// one group. It is never called when Provenance is false.
	MergeProvenance(rows []rdf.TermID) rdf.TermID
}

// slotProg is one compiled query evaluation: the variable -> slot mapping
// plus everything the operators need (solver, id space and resolved
// instruments).
type slotProg struct {
	solver Solver
	ids    *IDSpace
	lay    *SlotLayout
	// hidden is 1 when rows carry the solver's provenance column.
	hidden int
	// written is EvalOptions.DisablePlan.
	written bool

	// Instruments, resolved once per query from the solver's registry
	// (all nil-safe; nil when the solver has none).
	reg          *obs.Registry
	materialized *obs.Counter
	stageHists   map[string]*obs.Histogram

	// regexMemo holds the patterns this evaluation compiled because a
	// variable supplied them. Expressions run on the evaluation's own
	// goroutine, so it needs no lock.
	regexMemo map[regexKey]regexProg
}

func (p *slotProg) width() int { return len(p.lay.vars) + p.hidden }

// SlotLayout is the store-independent half of slot compilation: the dense
// variable -> slot mapping of one parsed query. A layout is immutable
// after Compile, so a prepared query can share its layout across
// concurrent evaluations against any store — only the id space and row
// sets are per-evaluation.
type SlotLayout struct {
	vars  []string
	slots map[string]int
	// regex holds the compiled form of every REGEX call whose pattern and
	// flags the query text fixes; nil when there is none.
	regex map[regexKey]regexProg
}

// Slot returns the slot index of a variable, or -1 when the query's
// patterns never bind it.
func (lay *SlotLayout) Slot(v string) int {
	if s, ok := lay.slots[v]; ok {
		return s
	}
	return -1
}

// SlotPattern is a triple pattern compiled against one evaluation: each
// position is a variable's slot, or (slot == -1) a constant's id in the
// evaluation's id space. A constant no dictionary knows gets an overflow
// id: no stored triple can match it, but a Solver whose sources speak
// terms can still send it over the wire.
type SlotPattern struct {
	s, p, o slotNode
}

type slotNode struct {
	slot int
	id   rdf.TermID
}

// Compile resolves a triple pattern's variables to slots and its
// constants to ids, once per BGP evaluation.
func (lay *SlotLayout) Compile(ids *IDSpace, tp TriplePattern) SlotPattern {
	conv := func(n Node) slotNode {
		if n.IsVar() {
			return slotNode{slot: lay.slots[n.Var]}
		}
		return slotNode{slot: -1, id: ids.ID(n.Term)}
	}
	return SlotPattern{s: conv(tp.S), p: conv(tp.P), o: conv(tp.O)}
}

func (n slotNode) query(r []rdf.TermID) rdf.TermID {
	if n.slot < 0 {
		return n.id
	}
	return r[n.slot]
}

// Query is the probe row r makes of the pattern: a constant's id, a bound
// slot's id, or rdf.NoTerm (the wildcard) where r leaves a variable open.
func (c SlotPattern) Query(r []rdf.TermID) (s, p, o rdf.TermID) {
	return c.s.query(r), c.p.query(r), c.o.query(r)
}

// Extend appends to out a copy of r extended by the matched triple t and
// returns it, or returns nil (appending nothing) when t disagrees with r:
// a slot already bound — the queried position, or the same variable
// appearing twice in one pattern — must hold the matched id.
func (c SlotPattern) Extend(out *Rows, r []rdf.TermID, t rdf.TripleID) []rdf.TermID {
	nr := out.Push(r)
	if !setSlot(nr, c.s.slot, t.S) || !setSlot(nr, c.p.slot, t.P) || !setSlot(nr, c.o.slot, t.O) {
		out.pop()
		return nil
	}
	return nr
}

func setSlot(nr []rdf.TermID, slot int, v rdf.TermID) bool {
	if slot < 0 {
		return true
	}
	if nr[slot] == rdf.NoTerm {
		nr[slot] = v
		return true
	}
	return nr[slot] == v
}

// compile assigns a dense slot index to every variable the query's
// patterns can bind, and compiles the constant REGEX patterns. Variables
// that appear only in projections, ORDER BY, GROUP BY or expressions (never
// bound by a pattern) need no slot: a missing slot reads as unbound
// everywhere, as a missing key does in the reference model's Binding.
func (lay *SlotLayout) compile(q *Query) {
	lay.slots = map[string]int{}
	addVar := func(v string) {
		if _, ok := lay.slots[v]; !ok {
			lay.slots[v] = len(lay.vars)
			lay.vars = append(lay.vars, v)
		}
	}
	var walk func(ps []Pattern)
	walk = func(ps []Pattern) {
		for _, pat := range ps {
			switch pat := pat.(type) {
			case BGP:
				for _, tp := range pat.Triples {
					for _, v := range tp.Vars() {
						addVar(v)
					}
				}
			case Optional:
				walk(pat.Patterns)
			case Union:
				walk(pat.Left)
				walk(pat.Right)
			case Values:
				for _, v := range pat.Vars {
					addVar(v)
				}
			case Exists:
				walk(pat.Patterns)
			case PathPattern:
				for _, n := range []Node{pat.S, pat.O} {
					if n.IsVar() {
						addVar(n.Var)
					}
				}
			case Bind:
				addVar(pat.As)
				lay.compileRegexes(pat.Expr)
			case Filter:
				lay.compileRegexes(pat.Expr)
			}
		}
	}
	walk(q.Patterns)
}

// get reads a variable from a row; the zero id means unbound (including
// variables without a slot).
func (p *slotProg) get(r []rdf.TermID, v string) rdf.TermID {
	if s, ok := p.lay.slots[v]; ok {
		return r[s]
	}
	return rdf.NoTerm
}
