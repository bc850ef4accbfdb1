package fed

import (
	"context"

	"alex/internal/endpoint"
	"alex/internal/rdf"
	"alex/internal/sparql"
	"alex/internal/store"
)

// Source is one member of a federation: a queryable triple collection. The
// in-process implementation wraps a store; the remote implementation wraps
// an HTTP SPARQL endpoint (internal/endpoint), turning the federation into
// the distributed setting the paper's architecture assumes.
// Every method takes a context so per-query deadlines and cancellation
// reach the wire (remote sources issue HTTP requests); in-process sources
// may ignore it.
type Source interface {
	// Name identifies the source in plans and diagnostics.
	Name() string
	// Count estimates how many of the source's triples match (s, p, o), with
	// Match's ids, wildcard and pinned generation gen. It is 0 only when
	// nothing matches: source selection keeps a source for a pattern when
	// Count(_, p, _) > 0, and the planner orders patterns by
	// sparql.Estimate over the counts of their constants.
	Count(ctx context.Context, ids *sparql.IDSpace, gen uint64, s, p, o rdf.TermID) (float64, error)
	// Match appends to dst the triples matching (s, p, o) and returns the
	// extended slice; rdf.NoTerm is a wildcard. Ids are those of the
	// evaluation's id space: a source whose triples do not live in the
	// federation's dictionary (a remote endpoint) converts ids to terms
	// and back through ids at its wire boundary, and a source that does
	// can never match an id outside the dictionary. gen is the source's
	// Generation as its evaluation pinned it: a local source matches its
	// data as it was then, a remote one ignores it (DESIGN.md row 24).
	Match(ctx context.Context, ids *sparql.IDSpace, gen uint64, s, p, o rdf.TermID, dst []rdf.TripleID) ([]rdf.TripleID, error)
	// Generation moves on every change to the source's data, never back.
	Generation() uint64
}

// localSource adapts an in-process store.
type localSource struct {
	st *store.Store
}

// LocalSource wraps a store as a federation Source.
func LocalSource(st *store.Store) Source { return localSource{st: st} }

func (s localSource) Name() string { return s.st.Name() }

// Count is the store's own posting-list count at the pinned generation —
// the single-store planner's statistic, so a one-store federation plans
// exactly as the store does. An id outside the dictionary has no postings
// and counts 0.
func (s localSource) Count(_ context.Context, _ *sparql.IDSpace, gen uint64, sub, pred, obj rdf.TermID) (float64, error) {
	return float64(s.st.At(gen).Count(sub, pred, obj)), nil
}

func (s localSource) Match(_ context.Context, ids *sparql.IDSpace, gen uint64, sub, pred, obj rdf.TermID, dst []rdf.TripleID) ([]rdf.TripleID, error) {
	if !ids.InDict(sub) || !ids.InDict(pred) || !ids.InDict(obj) {
		return dst, nil
	}
	s.st.At(gen).MatchEach(sub, pred, obj, func(t rdf.TripleID) { dst = append(dst, t) })
	return dst, nil
}

// Generation is the store's log length.
func (s localSource) Generation() uint64 { return s.st.Generation() }

// CachedEndpointQueryFunc adapts the federation as an endpoint.QueryFunc,
// so a whole federation can itself be served as a SPARQL endpoint with
// endpoint.NewQueryHandler — hierarchical federation — with a query cache
// in front: prepared forms are reused across spellings of one query and
// evaluated as cached, layout included, and — because cache is expected to
// be built over f.DataGeneration — whole sameAs-expanded answer sets are
// served from the result cache until a member's generation moves or the
// link set is swapped. A nil cache prepares and evaluates every request.
// Replies are encoded from the evaluator's id rows, as a single store's
// are, and carry the generation of the state the evaluation pinned; the
// links each row used stay in its provenance column, which the results
// format has no place for.
func CachedEndpointQueryFunc(f *Federation, cache *endpoint.QueryCache) endpoint.QueryFunc {
	if cache == nil {
		cache = endpoint.NewQueryCache(endpoint.CacheConfig{}, f.DataGeneration)
	}
	return func(ctx context.Context, query string) (*endpoint.Result, error) {
		return cache.Do(ctx, query, func(prep *sparql.Prepared) (*endpoint.Result, error) {
			rows, es, skips, err := f.eval(ctx, prep, sparql.EvalOptions{})
			if err != nil {
				return nil, err
			}
			res := endpoint.FromSlots(prep, rows, es.gen)
			res.Partial = len(skips) > 0
			return res, nil
		})
	}
}

// remoteSource adapts an HTTP SPARQL endpoint client.
type remoteSource struct {
	c *endpoint.Client
}

// RemoteSource wraps an endpoint client as a federation Source.
func RemoteSource(c *endpoint.Client) Source { return remoteSource{c: c} }

func (s remoteSource) Name() string { return s.c.Name() }

// Count answers from the endpoint's cached predicate or total COUNT, with
// a constant subject or object folded in (see endpoint.Client.Count). It
// ignores the pin, as Match does.
func (s remoteSource) Count(ctx context.Context, ids *sparql.IDSpace, _ uint64, sub, pred, obj rdf.TermID) (float64, error) {
	return s.c.Count(ctx, ids.Term(sub), ids.Term(pred), ids.Term(obj))
}

// Generation is endpoint.Client.Generation.
func (s remoteSource) Generation() uint64 { return s.c.Generation() }

// Match renders the bound ids as terms into a one-pattern query over ?s ?p
// ?o and interns the reply's terms back into the evaluation's id space.
func (s remoteSource) Match(ctx context.Context, ids *sparql.IDSpace, _ uint64, sub, pred, obj rdf.TermID, dst []rdf.TripleID) ([]rdf.TripleID, error) {
	q := [3]rdf.TermID{sub, pred, obj}
	var nodes [3]sparql.Node
	for i, name := range [3]string{"s", "p", "o"} {
		if q[i] == rdf.NoTerm {
			nodes[i] = sparql.VarNode(name)
		} else {
			nodes[i] = sparql.TermNode(ids.Term(q[i]))
		}
	}
	rows, err := s.c.MatchPattern(ctx, sparql.TriplePattern{S: nodes[0], P: nodes[1], O: nodes[2]})
	if err != nil {
		return dst, err
	}
	for _, row := range rows {
		t := q
		for i, n := range nodes {
			if n.IsVar() {
				t[i] = ids.ID(row[n.Var])
			}
		}
		dst = append(dst, rdf.TripleID{S: t[0], P: t[1], O: t[2]})
	}
	return dst, nil
}
