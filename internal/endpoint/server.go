// Package endpoint implements the SPARQL protocol over HTTP: a Handler
// that serves a store as a query endpoint (SELECT and ASK, JSON results),
// and a Client that queries such endpoints. Together with internal/fed's
// remote sources they turn the in-process federation into the distributed
// setting the paper's architecture (Fig 1) describes: independent linked-
// data endpoints queried by one federated processor.
//
// The wire format follows the W3C "SPARQL 1.1 Query Results JSON Format":
//
//	{"head":{"vars":[...]},"results":{"bindings":[{"x":{"type":"uri","value":...}}]}}
//	{"head":{},"boolean":true}                          (ASK)
package endpoint

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"alex/internal/obs"
	"alex/internal/rdf"
	"alex/internal/sparql"
	"alex/internal/store"
)

// QueryFunc answers one SPARQL query. It backs the generic query handler,
// so anything that speaks SPARQL — a single store, a whole federation —
// can be served as an endpoint (hierarchical federation). ctx is the
// request's context: it is cancelled when the client disconnects, and may
// carry a per-request deadline.
type QueryFunc func(ctx context.Context, query string) (*Result, error)

// TraceFunc answers one SPARQL query and returns its execution trace. It
// backs the /debug/trace route; see Handler.SetTraceFunc.
type TraceFunc func(ctx context.Context, query string) (*Result, *obs.Trace, error)

// Handler serves a SPARQL query engine over the protocol. Routes:
//
//	GET/POST /sparql        the query endpoint (?query= or form/body)
//	GET      /stats         JSON statistics
//	GET      /metrics       JSON metrics snapshot (see SetObserver)
//	GET/POST /debug/trace   per-query span tree (see SetTraceFunc)
type Handler struct {
	query    QueryFunc
	stats    func() map[string]any
	feedback FeedbackFunc
	mux      *http.ServeMux

	// Observability. Set both before serving; instruments are nil-safe
	// no-ops while unset.
	obsReg     *obs.Registry
	trace      TraceFunc
	cRequests  *obs.Counter
	cFeedback  *obs.Counter
	hRequestNS *obs.Histogram
}

// NewHandler returns a handler over a single store, with /debug/trace
// pre-wired to the store's query evaluator. Every request is parsed and
// compiled afresh — without the normalisation a cache would key on.
func NewHandler(st *store.Store) *Handler {
	return newStoreHandler(st, func(ctx context.Context, query string) (*Result, error) {
		return storeQuery(ctx, st, query, nil)
	})
}

// newStoreHandler serves query over st's statistics, with /debug/trace
// wired to an uncached, traced evaluation against st.
func newStoreHandler(st *store.Store, query QueryFunc) *Handler {
	h := NewQueryHandler(query, func() map[string]any {
		s := st.Stats()
		return map[string]any{
			"name":       s.Name,
			"triples":    s.Triples,
			"subjects":   s.Subjects,
			"predicates": s.Predicates,
		}
	})
	h.SetTraceFunc(func(ctx context.Context, query string) (*Result, *obs.Trace, error) {
		tr := obs.NewTrace("query")
		res, err := storeQuery(ctx, st, query, tr)
		return res, tr, err
	})
	return h
}

// NewQueryHandler returns a handler over any query engine. stats may be nil.
func NewQueryHandler(query QueryFunc, stats func() map[string]any) *Handler {
	h := &Handler{query: query, stats: stats, mux: http.NewServeMux()}
	h.mux.HandleFunc("/sparql", h.handleQuery)
	h.mux.HandleFunc("/feedback", h.handleFeedback)
	h.mux.HandleFunc("/stats", h.handleStats)
	h.mux.HandleFunc("/metrics", h.handleMetrics)
	h.mux.HandleFunc("/debug/trace", h.handleTrace)
	return h
}

// SetObserver attaches a metrics registry: endpoint.requests and
// endpoint.request_ns record query requests and their latency,
// endpoint.status.<code> counts responses per HTTP status, and
// endpoint.feedback.requests counts POST /feedback submissions. The
// registry also backs /metrics. Call before serving.
func (h *Handler) SetObserver(reg *obs.Registry) {
	h.obsReg = reg
	h.cRequests = reg.Counter(obs.EndpointRequests)
	h.cFeedback = reg.Counter(obs.EndpointFeedbackRequests)
	h.hRequestNS = reg.Histogram(obs.EndpointRequestNS)
}

// SetTraceFunc enables /debug/trace: each request there is answered by fn
// and the returned span tree is rendered (text by default, JSON with
// ?format=json). Call before serving.
func (h *Handler) SetTraceFunc(fn TraceFunc) { h.trace = fn }

// storeQuery parses and compiles a query as written and evaluates it.
func storeQuery(ctx context.Context, st *store.Store, query string, tr *obs.Trace) (*Result, error) {
	q, err := sparql.Parse(query)
	if err != nil {
		return nil, &BadQueryError{Err: err}
	}
	return storeEval(ctx, st, sparql.Compile(q), tr)
}

// storeEval evaluates a compiled query against one store under the
// request's context and adapts the result, rows still in id space; tr, when
// set, records the evaluation's spans.
func storeEval(ctx context.Context, st *store.Store, prep *sparql.Prepared, tr *obs.Trace) (*Result, error) {
	res, err := prep.Eval(ctx, sparql.StoreSolver(st), sparql.EvalOptions{Trace: tr})
	if err != nil {
		return nil, err
	}
	out := &Result{Vars: res.Vars, Triples: res.Triples, slots: res}
	if prep.Query().Ask {
		out.IsAsk = true
		out.Boolean = res.AskResult()
	}
	return out, nil
}

// BadQueryError marks client errors (malformed queries) so the handler can
// answer 400 instead of 500.
type BadQueryError struct{ Err error }

func (e *BadQueryError) Error() string { return e.Err.Error() }
func (e *BadQueryError) Unwrap() error { return e.Err }

// errorStatus is the reply status of a failed query: 400 for a query the
// client got wrong, 504 for one that outlived its deadline, 500 otherwise.
func errorStatus(err error) int {
	var bad *BadQueryError
	switch {
	case errors.As(err, &bad):
		return http.StatusBadRequest
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mux.ServeHTTP(w, r)
}

func (h *Handler) handleQuery(w http.ResponseWriter, r *http.Request) {
	h.cRequests.Inc()
	if h.obsReg == nil {
		h.serveQuery(w, r)
		return
	}
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	t0 := time.Now()
	h.serveQuery(sw, r)
	h.hRequestNS.Observe(time.Since(t0).Nanoseconds())
	h.obsReg.Counter(obs.EndpointStatus(sw.status)).Inc()
}

// statusWriter captures the response status for the per-code counters.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (h *Handler) serveQuery(w http.ResponseWriter, r *http.Request) {
	query, err := extractQuery(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	res, err := h.query(r.Context(), query)
	if err != nil {
		http.Error(w, err.Error(), errorStatus(err))
		return
	}
	if res.Triples != nil {
		w.Header().Set("Content-Type", "application/n-triples")
		nt := rdf.NewWriter(w)
		for _, t := range res.Triples {
			if err := nt.Write(t); err != nil {
				return
			}
		}
		_ = nt.Flush()
		return
	}
	w.Header().Set("Content-Type", "application/sparql-results+json")
	writeResults(w, res)
}

func (h *Handler) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, h.obsReg.Snapshot())
}

func (h *Handler) handleTrace(w http.ResponseWriter, r *http.Request) {
	if h.trace == nil {
		http.Error(w, "tracing not enabled", http.StatusNotImplemented)
		return
	}
	query, err := extractQuery(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	res, tr, err := h.trace(r.Context(), query)
	if err != nil {
		http.Error(w, err.Error(), errorStatus(err))
		return
	}
	if r.Form.Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		writeJSON(w, tr)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "%d rows\n\n%s", res.rowCount(), tr.String())
}

func (h *Handler) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if h.stats == nil {
		writeJSON(w, map[string]any{})
		return
	}
	writeJSON(w, h.stats())
}

// extractQuery pulls the query string per the SPARQL protocol: the query
// URL parameter (GET or POST form), or the raw body for the
// application/sparql-query content type.
func extractQuery(r *http.Request) (string, error) {
	if ct := r.Header.Get("Content-Type"); strings.HasPrefix(ct, "application/sparql-query") {
		body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
		if err != nil {
			return "", fmt.Errorf("reading query body: %w", err)
		}
		return string(body), nil
	}
	if err := r.ParseForm(); err != nil {
		return "", fmt.Errorf("parsing form: %w", err)
	}
	q := r.Form.Get("query")
	if q == "" {
		return "", fmt.Errorf("missing query parameter")
	}
	return q, nil
}

// writeJSON serves the diagnostic routes (/stats, /metrics, /debug/trace);
// query replies are written by writeResults.
func writeJSON(w http.ResponseWriter, v any) {
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}
