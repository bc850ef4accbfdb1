package endpoint

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"alex/internal/rdf"
	"alex/internal/sparql"
)

// Client queries a remote SPARQL endpoint. It caches ASK probes and
// predicate counts, which the federated optimizer consults repeatedly.
// A Client is safe for concurrent use.
type Client struct {
	name string
	base string
	http *http.Client

	mu         sync.Mutex
	askCache   map[string]bool
	countCache map[string]int
}

// pooledClient is the default HTTP client: a keep-alive connection pool
// sized for sustained traffic against a handful of endpoints, instead of
// http.DefaultClient's two idle connections per host (which forces a TCP
// handshake on nearly every federated probe under concurrency). Shared by
// every Client constructed with a nil httpClient, so connections to one
// endpoint are reused across federation members.
var pooledClient = &http.Client{
	Transport: &http.Transport{
		Proxy:               http.ProxyFromEnvironment,
		MaxIdleConns:        256,
		MaxIdleConnsPerHost: 64,
		IdleConnTimeout:     90 * time.Second,
	},
}

// NewClient returns a client named name for the endpoint at base (the URL
// of the /sparql route, e.g. "http://host:8080/sparql"). A nil httpClient
// uses a shared pooled keep-alive client (see pooledClient).
func NewClient(name, base string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = pooledClient
	}
	return &Client{
		name:       name,
		base:       base,
		http:       httpClient,
		askCache:   map[string]bool{},
		countCache: map[string]int{},
	}
}

// Name returns the endpoint's name.
func (c *Client) Name() string { return c.name }

// Result is a decoded SPARQL result. Triples is set for CONSTRUCT results
// produced locally by a query engine; the HTTP client does not decode
// CONSTRUCT responses.
type Result struct {
	Vars    []string
	Rows    []sparql.Binding
	IsAsk   bool
	Boolean bool
	Triples []rdf.Triple

	// slots, when set (single-store handler), holds the result still in id
	// space; the handler serializes it directly, decoding each term exactly
	// once at the JSON boundary, and Rows stays nil.
	slots *sparql.SlotResult
}

// rowCount is the solution-row count regardless of representation.
func (r *Result) rowCount() int {
	if r.slots != nil {
		return r.slots.Len()
	}
	return len(r.Rows)
}

// QueryContext sends a SPARQL query and decodes the JSON response. The
// HTTP request carries ctx, so a caller's deadline or cancellation aborts
// the in-flight round trip.
func (c *Client) QueryContext(ctx context.Context, query string) (*Result, error) {
	form := url.Values{"query": {query}}.Encode()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base, strings.NewReader(form))
	if err != nil {
		return nil, fmt.Errorf("endpoint %s: %w", c.name, err)
	}
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, fmt.Errorf("endpoint %s: %w", c.name, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, fmt.Errorf("endpoint %s: reading response: %w", c.name, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("endpoint %s: HTTP %d: %s", c.name, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	// ASK and SELECT share the "head" field; sniff for "boolean".
	var probe struct {
		Boolean *bool `json:"boolean"`
	}
	if err := json.Unmarshal(body, &probe); err != nil {
		return nil, fmt.Errorf("endpoint %s: decoding response: %w", c.name, err)
	}
	if probe.Boolean != nil {
		return &Result{IsAsk: true, Boolean: *probe.Boolean}, nil
	}
	var doc selectDocument
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, fmt.Errorf("endpoint %s: decoding bindings: %w", c.name, err)
	}
	out := &Result{Vars: doc.Head.Vars}
	for _, b := range doc.Results.Bindings {
		row := sparql.Binding{}
		for v, td := range b {
			t, err := decodeTerm(td)
			if err != nil {
				return nil, err
			}
			row[v] = t
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Wire documents, as the client decodes them; wire.go writes them.

type headDocument struct {
	Vars []string `json:"vars,omitempty"`
}

type termDocument struct {
	Type     string `json:"type"`
	Value    string `json:"value"`
	Lang     string `json:"xml:lang,omitempty"`
	Datatype string `json:"datatype,omitempty"`
}

type selectDocument struct {
	Head    headDocument `json:"head"`
	Results struct {
		Bindings []map[string]termDocument `json:"bindings"`
	} `json:"results"`
}

// decodeTerm is the inverse of appendTerm.
func decodeTerm(d termDocument) (rdf.Term, error) {
	switch d.Type {
	case "uri":
		return rdf.NewIRI(d.Value), nil
	case "bnode":
		return rdf.NewBlank(d.Value), nil
	case "literal", "typed-literal":
		switch {
		case d.Lang != "":
			return rdf.NewLangString(d.Value, d.Lang), nil
		case d.Datatype != "":
			return rdf.NewTyped(d.Value, d.Datatype), nil
		default:
			return rdf.NewString(d.Value), nil
		}
	default:
		return rdf.Term{}, fmt.Errorf("endpoint: unknown term type %q", d.Type)
	}
}

// AskContext runs an ASK query, cached by query text.
func (c *Client) AskContext(ctx context.Context, query string) (bool, error) {
	c.mu.Lock()
	if v, ok := c.askCache[query]; ok {
		c.mu.Unlock()
		return v, nil
	}
	c.mu.Unlock()
	res, err := c.QueryContext(ctx, query)
	if err != nil {
		return false, err
	}
	if !res.IsAsk {
		return false, fmt.Errorf("endpoint %s: expected boolean result", c.name)
	}
	c.mu.Lock()
	c.askCache[query] = res.Boolean
	c.mu.Unlock()
	return res.Boolean, nil
}

// HasPredicateContext probes whether the endpoint holds any triple with
// the given predicate — the FedX ASK-based source-selection probe, cached.
func (c *Client) HasPredicateContext(ctx context.Context, pred rdf.Term) (bool, error) {
	return c.AskContext(ctx, fmt.Sprintf("ASK { ?s %s ?o }", pred))
}

// PredicateCountContext returns the number of triples with the given
// predicate, cached. Used by the federated join optimizer's cost model.
func (c *Client) PredicateCountContext(ctx context.Context, pred rdf.Term) (int, error) {
	key := pred.String()
	c.mu.Lock()
	if v, ok := c.countCache[key]; ok {
		c.mu.Unlock()
		return v, nil
	}
	c.mu.Unlock()
	res, err := c.QueryContext(ctx, fmt.Sprintf("SELECT (COUNT(*) AS ?n) WHERE { ?s %s ?o }", pred))
	if err != nil {
		return 0, err
	}
	n := 0
	if len(res.Rows) == 1 {
		if t, ok := res.Rows[0]["n"]; ok {
			if v, isInt := t.AsInt(); isInt {
				n = int(v)
			}
		}
	}
	c.mu.Lock()
	c.countCache[key] = n
	c.mu.Unlock()
	return n, nil
}

// SizeContext returns the endpoint's total triple count (from /stats if
// the base URL ends in /sparql, else via COUNT), cached under the empty key.
func (c *Client) SizeContext(ctx context.Context) (int, error) {
	c.mu.Lock()
	if v, ok := c.countCache[""]; ok {
		c.mu.Unlock()
		return v, nil
	}
	c.mu.Unlock()
	res, err := c.QueryContext(ctx, "SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }")
	if err != nil {
		return 0, err
	}
	n := 0
	if len(res.Rows) == 1 {
		if v, ok := res.Rows[0]["n"].AsInt(); ok {
			n = int(v)
		}
	}
	c.mu.Lock()
	c.countCache[""] = n
	c.mu.Unlock()
	return n, nil
}

// MatchPatternContext evaluates one triple pattern against the endpoint
// and returns one binding of the pattern's variables per match — what a
// federation's remote source sends per bound-join row.
func (c *Client) MatchPatternContext(ctx context.Context, tp sparql.TriplePattern) ([]sparql.Binding, error) {
	render := func(n sparql.Node) (string, string) {
		if n.IsVar() {
			return "?" + n.Var, n.Var
		}
		return n.Term.String(), ""
	}
	sTxt, sVar := render(tp.S)
	pTxt, pVar := render(tp.P)
	oTxt, oVar := render(tp.O)
	var vars []string
	seen := map[string]bool{}
	for _, v := range []string{sVar, pVar, oVar} {
		if v != "" && !seen[v] {
			seen[v] = true
			vars = append(vars, v)
		}
	}
	patternTxt := fmt.Sprintf("%s %s %s .", sTxt, pTxt, oTxt)
	if len(vars) == 0 {
		ok, err := c.AskContext(ctx, "ASK { "+patternTxt+" }")
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, nil
		}
		return []sparql.Binding{{}}, nil
	}
	var sb strings.Builder
	sb.WriteString("SELECT ")
	for _, v := range vars {
		sb.WriteString("?" + v + " ")
	}
	sb.WriteString("WHERE { " + patternTxt + " }")
	res, err := c.QueryContext(ctx, sb.String())
	if err != nil {
		return nil, err
	}
	return res.Rows, nil
}
