package sparql

import (
	"context"

	"alex/internal/obs"
	"alex/internal/store"
)

// Prepared is the one compiled form of a query, reusable across
// evaluations: the normalized key, the parsed algebra and the slot layout
// (with the query's constant REGEX patterns compiled into it) are all
// immutable after Prepare or Compile, so a cached Prepared may be
// evaluated concurrently from many goroutines against any Solver. Each
// evaluation still gets its own id space, row sets and BGP plan — the plan
// depends on the data's live statistics, so it is deliberately not frozen
// into the prepared form.
type Prepared struct {
	// Key is the normalized query text (NormalizeQuery output) the
	// prepared-query cache keys on; empty for a Compile of a parsed query.
	Key string

	query  *Query
	layout SlotLayout
}

// Prepare normalizes, parses and slot-compiles a query once. It parses the
// query as written, so a syntax error cites the offset and spelling the
// caller sent; the key only names the cache entry. Two inputs with equal
// normalized keys yield Prepared values with identical algebra and
// identical slot layouts (the fuzz target FuzzNormalizeQuery enforces
// this), which is what makes the normalized key a sound cache key.
func Prepare(query string) (*Prepared, error) {
	key, err := NormalizeQuery(query)
	if err != nil {
		return nil, err
	}
	q, err := Parse(query)
	if err != nil {
		return nil, err
	}
	p := Compile(q)
	p.Key = key
	return p, nil
}

// Compile slot-compiles a query the caller has already parsed.
func Compile(q *Query) *Prepared {
	p := &Prepared{query: q}
	p.layout.compile(q)
	return p
}

// Query returns the parsed algebra. Callers must treat it as read-only —
// it is shared by every evaluation of this prepared query.
func (p *Prepared) Query() *Query { return p.query }

// EvalOptions tunes one evaluation.
type EvalOptions struct {
	// DisablePlan keeps each BGP's written pattern order instead of
	// reordering by estimated selectivity — the ablation switch for
	// measuring what the planner buys.
	DisablePlan bool
}

// Eval is the evaluator's one entry point: it runs the prepared query
// against s — StoreSolver for one store, a federation's solver for many —
// and returns the rows still in id space. ctx reaches the solver with
// every basic graph pattern and property path, so cancelling it ends the
// evaluation at the next pattern (or sooner, see Solver) with ctx's error.
// When ctx carries a trace (obs.WithTrace), it receives one span per
// evaluation stage: per-pattern match timing, join input/output
// cardinalities, the planner's chosen order. The recorded prefix survives
// an evaluation that fails partway.
func (p *Prepared) Eval(ctx context.Context, s Solver, opts EvalOptions) (*SlotResult, error) {
	prog := &slotProg{solver: s, ids: newIDSpace(s.Dict()), lay: &p.layout, written: opts.DisablePlan}
	if s.Provenance() {
		prog.hidden = 1
	}
	prog.reg = s.Registry()
	prog.materialized = prog.reg.Counter(obs.SparqlRowsMaterialized)
	return prog.run(ctx, p.query, obs.TraceFrom(ctx))
}

// EvalSlots is Eval against one store as it is now, without a deadline or
// options: for callers that have no request to take a context from.
func (p *Prepared) EvalSlots(st *store.Store) (*SlotResult, error) {
	return p.Eval(context.Background(), StoreSolver(st.Now()), EvalOptions{})
}
