package fed

import (
	"context"

	"alex/internal/endpoint"
	"alex/internal/obs"
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
	// HasPredicate reports whether the source can answer patterns with
	// the predicate — FedX's ASK-style source-selection probe.
	HasPredicate(ctx context.Context, pred rdf.Term) (bool, error)
	// PredicateCount estimates the number of triples carrying the
	// predicate, for the join optimizer's cost model.
	PredicateCount(ctx context.Context, pred rdf.Term) (int, error)
	// Size is the source's total triple count.
	Size(ctx context.Context) (int, error)
	// Match appends to dst the triples matching (s, p, o) and returns the
	// extended slice; rdf.NoTerm is a wildcard. Ids are those of the
	// evaluation's id space: a source whose triples do not live in the
	// federation's dictionary (a remote endpoint) converts ids to terms
	// and back through ids at its wire boundary, and a source that does
	// can never match an id outside the dictionary.
	Match(ctx context.Context, ids *sparql.IDSpace, s, p, o rdf.TermID, dst []rdf.TripleID) ([]rdf.TripleID, error)
}

// localSource adapts an in-process store.
type localSource struct {
	st *store.Store
}

// LocalSource wraps a store as a federation Source.
func LocalSource(st *store.Store) Source { return localSource{st: st} }

func (s localSource) Name() string { return s.st.Name() }

func (s localSource) HasPredicate(_ context.Context, pred rdf.Term) (bool, error) {
	id, ok := s.st.Dict().Lookup(pred)
	if !ok {
		return false, nil
	}
	return s.st.HasPredicate(id), nil
}

func (s localSource) PredicateCount(_ context.Context, pred rdf.Term) (int, error) {
	id, ok := s.st.Dict().Lookup(pred)
	if !ok {
		return 0, nil
	}
	return s.st.PredicateCount(id), nil
}

func (s localSource) Size(context.Context) (int, error) { return s.st.Len(), nil }

func (s localSource) Match(_ context.Context, ids *sparql.IDSpace, sub, pred, obj rdf.TermID, dst []rdf.TripleID) ([]rdf.TripleID, error) {
	if !ids.InDict(sub) || !ids.InDict(pred) || !ids.InDict(obj) {
		return dst, nil
	}
	s.st.MatchEach(sub, pred, obj, func(t rdf.TripleID) { dst = append(dst, t) })
	return dst, nil
}

// Generation exposes the backing store's mutation counter, making every
// local source a GenerationSource for Federation.DataGeneration.
func (s localSource) Generation() uint64 { return s.st.Generation() }

// CachedEndpointQueryFunc adapts the federation as an endpoint.QueryFunc,
// so a whole federation can itself be served as a SPARQL endpoint with
// endpoint.NewQueryHandler — hierarchical federation — with a query cache
// in front: prepared forms are reused across spellings of one query and
// evaluated as cached, layout included, and — because cache is expected to
// be built over f.DataGeneration — whole sameAs-expanded answer sets are
// served from the result cache until any member store mutates or the link
// set is swapped. A nil cache prepares and evaluates every request.
func CachedEndpointQueryFunc(f *Federation, cache *endpoint.QueryCache) endpoint.QueryFunc {
	return func(ctx context.Context, query string) (*endpoint.Result, error) {
		return cache.Do(query, func(prep *sparql.Prepared) (*endpoint.Result, error) {
			res, err := f.EvalContext(ctx, prep, nil)
			if err != nil {
				return nil, err
			}
			return toEndpointResult(prep.Query(), res), nil
		})
	}
}

// toEndpointResult converts a federated result to the endpoint's wire
// shape. Link provenance is not representable in the SPARQL results
// format and is dropped.
func toEndpointResult(q *sparql.Query, res *Result) *endpoint.Result {
	out := &endpoint.Result{Triples: res.Triples}
	if q.Ask {
		out.IsAsk = true
		out.Boolean = res.AskResult()
		return out
	}
	out.Vars = res.Vars
	for _, a := range res.Answers {
		out.Rows = append(out.Rows, a.Binding)
	}
	return out
}

// EndpointTraceFunc adapts the federation as an endpoint.TraceFunc, backing
// the /debug/trace route of a served federation (see
// CachedEndpointQueryFunc for the query adapter).
func EndpointTraceFunc(f *Federation) endpoint.TraceFunc {
	return func(ctx context.Context, query string) (*endpoint.Result, *obs.Trace, error) {
		q, err := sparql.Parse(query)
		if err != nil {
			return nil, nil, &endpoint.BadQueryError{Err: err}
		}
		tr := obs.NewTrace("query")
		res, err := f.EvalContext(ctx, sparql.Compile(q), tr)
		if err != nil {
			return nil, tr, err
		}
		return toEndpointResult(q, res), tr, nil
	}
}

// remoteSource adapts an HTTP SPARQL endpoint client.
type remoteSource struct {
	c *endpoint.Client
}

// RemoteSource wraps an endpoint client as a federation Source.
func RemoteSource(c *endpoint.Client) Source { return remoteSource{c: c} }

func (s remoteSource) Name() string { return s.c.Name() }

func (s remoteSource) HasPredicate(ctx context.Context, pred rdf.Term) (bool, error) {
	return s.c.HasPredicateContext(ctx, pred)
}

func (s remoteSource) PredicateCount(ctx context.Context, pred rdf.Term) (int, error) {
	return s.c.PredicateCountContext(ctx, pred)
}

func (s remoteSource) Size(ctx context.Context) (int, error) { return s.c.SizeContext(ctx) }

// Match renders the bound ids as terms into a one-pattern query over ?s ?p
// ?o and interns the reply's terms back into the evaluation's id space.
func (s remoteSource) Match(ctx context.Context, ids *sparql.IDSpace, sub, pred, obj rdf.TermID, dst []rdf.TripleID) ([]rdf.TripleID, error) {
	q := [3]rdf.TermID{sub, pred, obj}
	var nodes [3]sparql.Node
	for i, name := range [3]string{"s", "p", "o"} {
		if q[i] == rdf.NoTerm {
			nodes[i] = sparql.VarNode(name)
		} else {
			nodes[i] = sparql.TermNode(ids.Term(q[i]))
		}
	}
	rows, err := s.c.MatchPatternContext(ctx, sparql.TriplePattern{S: nodes[0], P: nodes[1], O: nodes[2]})
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
