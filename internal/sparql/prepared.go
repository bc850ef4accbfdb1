package sparql

import (
	"alex/internal/obs"
	"alex/internal/store"
)

// Prepared is one parse-and-compile of a query, reusable across
// evaluations: the normalized key, the parsed algebra and the slot layout
// (with the query's constant REGEX patterns compiled into it) are all
// immutable after Prepare, so a cached Prepared may be evaluated
// concurrently from many goroutines against any store. Each evaluation
// still gets its own id space, row sets and BGP plan — the plan depends
// on the store's live statistics, so it is deliberately not frozen into
// the prepared form.
type Prepared struct {
	// Key is the normalized query text (NormalizeQuery output) the
	// prepared-query cache keys on.
	Key string

	query  *Query
	layout *SlotLayout
}

// Prepare normalizes, parses and slot-compiles a query once. Two inputs
// with equal normalized keys yield Prepared values with identical algebra
// and identical slot layouts (the fuzz target FuzzNormalizeQuery enforces
// this), which is what makes the normalized key a sound cache key.
func Prepare(query string) (*Prepared, error) {
	key, err := NormalizeQuery(query)
	if err != nil {
		return nil, err
	}
	q, err := Parse(key)
	if err != nil {
		return nil, err
	}
	return &Prepared{Key: key, query: q, layout: CompileLayout(q)}, nil
}

// Query returns the parsed algebra. Callers must treat it as read-only —
// it is shared by every evaluation of this prepared query.
func (p *Prepared) Query() *Query { return p.query }

// EvalSlots evaluates the prepared query against st, skipping the
// per-request parse and slot compilation.
func (p *Prepared) EvalSlots(st *store.Store) (*SlotResult, error) {
	return p.EvalSlotsTrace(st, nil, EvalOptions{})
}

// EvalSlotsTrace is EvalSlots with span recording and options.
func (p *Prepared) EvalSlotsTrace(st *store.Store, tr *obs.Trace, opts EvalOptions) (*SlotResult, error) {
	return newStoreProg(st, p.layout, opts).run(p.query, tr)
}
