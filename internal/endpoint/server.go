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
	"strconv"
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

// Handler serves a SPARQL query engine over the protocol. Routes:
//
//	GET/POST /sparql        the query endpoint (?query= or form/body)
//	GET      /stats         JSON statistics
//	GET      /metrics       JSON metrics snapshot (see SetObserver)
//	GET/POST /debug/trace   per-query span tree of the served path; a GET
//	                        with no query lists the registry's kept traces
type Handler struct {
	query    QueryFunc
	stats    func() map[string]any
	feedback FeedbackFunc
	mux      *http.ServeMux

	// Observability. Set before serving; instruments are nil-safe no-ops
	// while unset.
	obsReg     *obs.Registry
	cRequests  *obs.Counter
	cFeedback  *obs.Counter
	hRequestNS *obs.Histogram
}

// NewHandler returns a handler over a single store. Every request is
// parsed as written and compiled afresh — without the normalisation a cache
// would key on.
func NewHandler(st *store.Store) *Handler {
	return newStoreHandler(st, func(ctx context.Context, query string) (*Result, error) {
		q, err := sparql.Parse(query)
		if err != nil {
			return nil, &BadQueryError{Err: err}
		}
		return storeEval(ctx, st, sparql.Compile(q))
	})
}

// newStoreHandler serves query over st's statistics.
func newStoreHandler(st *store.Store, query QueryFunc) *Handler {
	return NewQueryHandler(query, func() map[string]any {
		s := st.Stats()
		return map[string]any{
			"name":       s.Name,
			"triples":    s.Triples,
			"subjects":   s.Subjects,
			"predicates": s.Predicates,
		}
	})
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

// storeEval evaluates a compiled query against one store as it is now
// under the request's context and adapts the result, rows still in id
// space, tagged with the generation it read.
func storeEval(ctx context.Context, st *store.Store, prep *sparql.Prepared) (*Result, error) {
	v := st.Now()
	res, err := prep.Eval(ctx, sparql.StoreSolver(v), sparql.EvalOptions{})
	if err != nil {
		return nil, err
	}
	return FromSlots(prep, res, v.Generation()), nil
}

// FromSlots adapts an evaluation of prep — against any solver, over data at
// generation gen, the one it read — for the handler, rows still in id
// space: the reply decodes each term exactly once, at the JSON boundary,
// and a solver's provenance column never reaches the wire.
func FromSlots(prep *sparql.Prepared, res *sparql.SlotResult, gen uint64) *Result {
	out := &Result{Vars: res.Vars, Triples: res.Triples, Generation: gen, slots: res}
	if prep.Query().Ask {
		out.IsAsk = true
		out.Boolean = res.AskResult()
	}
	return out
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
		http.Error(w, err.Error(), requestStatus(err))
		return
	}
	res, err := h.query(r.Context(), query)
	if err != nil {
		http.Error(w, err.Error(), errorStatus(err))
		return
	}
	w.Header().Set(generationHeader, strconv.FormatUint(res.Generation, 10))
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

// handleTrace answers a query through the query function /sparql calls,
// with a trace in the request's context, so the span tree shows the work
// /sparql does, cache hits included, and keeps the trace in the registry.
// A GET with no query lists the registry's kept traces instead.
func (h *Handler) handleTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodGet && r.URL.Query().Get("query") == "" {
		traces := append([]*obs.Trace{}, h.obsReg.Traces()...) // JSON [] when none
		text := fmt.Sprintf("%d traces\n", len(traces))
		for _, tr := range traces {
			text += "\n" + tr.String()
		}
		writeTrace(w, r, traces, text)
		return
	}
	query, err := extractQuery(r)
	if err != nil {
		http.Error(w, err.Error(), requestStatus(err))
		return
	}
	tr := obs.NewTrace("query")
	res, err := h.query(obs.WithTrace(r.Context(), tr), query)
	tr.Finish()
	h.obsReg.AddTrace(tr)
	if err != nil {
		http.Error(w, err.Error(), errorStatus(err))
		return
	}
	writeTrace(w, r, tr, fmt.Sprintf("%d rows\n\n%s", res.rowCount(), tr))
}

// writeTrace serves v as JSON when the request asks ?format=json, in the
// URL or the form, else text.
func writeTrace(w http.ResponseWriter, r *http.Request, v any, text string) {
	if r.FormValue("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		writeJSON(w, v)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = io.WriteString(w, text)
}

func (h *Handler) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if h.stats == nil {
		writeJSON(w, map[string]any{})
		return
	}
	writeJSON(w, h.stats())
}

// maxBody is the longest request body the endpoint reads; a longer one
// is answered 413.
const maxBody = 1 << 20

var errBodyTooLarge = fmt.Errorf("request body longer than %d bytes", maxBody)

// readBody reads r's body whole. It reads one byte past maxBody to tell a
// body of exactly maxBody bytes from a longer one, which is
// errBodyTooLarge.
func readBody(r *http.Request) ([]byte, error) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBody+1))
	if err == nil && len(body) > maxBody {
		return nil, errBodyTooLarge
	}
	return body, err
}

// requestStatus is the status for a request that could not be read: 413
// for a body over maxBody, else 400.
func requestStatus(err error) int {
	if errors.Is(err, errBodyTooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// extractQuery pulls the query string per the SPARQL protocol: the query
// URL parameter (GET or POST form), or the raw body for the
// application/sparql-query content type.
func extractQuery(r *http.Request) (string, error) {
	if ct := r.Header.Get("Content-Type"); strings.HasPrefix(ct, "application/sparql-query") {
		body, err := readBody(r)
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
