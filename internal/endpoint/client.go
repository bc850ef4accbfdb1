package endpoint

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"alex/internal/rdf"
	"alex/internal/sparql"
)

// Client queries a remote SPARQL endpoint. It caches the COUNT answers
// Count is built from, which the federated planner consults for every
// pattern of every query. A Client is safe for concurrent use.
type Client struct {
	name string
	base string
	http *http.Client

	mu     sync.Mutex
	counts map[string]int // COUNT query text -> answer, at generation served
	// served is the last nonzero reply generation; changes counts its changes.
	served, changes uint64
}

// generationHeader carries a /sparql reply's Result.Generation.
const generationHeader = "Data-Generation"

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
	return &Client{name: name, base: base, http: httpClient, counts: map[string]int{}}
}

// Name returns the endpoint's name.
func (c *Client) Name() string { return c.name }

// Result is a SPARQL result. The Client decodes a reply into Vars and Rows
// (or IsAsk and Boolean); it does not decode CONSTRUCT responses. A handler
// serves a Result built by FromSlots: its rows are the evaluator's, still in
// id space, and Rows stays nil. Triples is set for CONSTRUCT results
// produced locally by a query engine.
type Result struct {
	Vars    []string
	Rows    []sparql.Binding
	IsAsk   bool
	Boolean bool
	Triples []rdf.Triple
	// Partial marks an answer computed while a federation member was
	// skipped; the result cache serves it but never stores it.
	Partial bool
	// Generation is the data generation the evaluation read; a handler
	// sends it in a header, the Client reads it back (0 if none).
	Generation uint64

	slots *sparql.SlotResult
}

// rowCount is the solution-row count regardless of representation.
func (r *Result) rowCount() int {
	if r.slots != nil {
		return r.slots.Len()
	}
	return len(r.Rows)
}

// Query sends a SPARQL query and decodes the JSON response. The HTTP
// request carries ctx, so a caller's deadline or cancellation aborts the
// in-flight round trip. A reply whose generation differs from the last one
// drops every cached COUNT.
func (c *Client) Query(ctx context.Context, query string) (*Result, error) {
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
	gen, _ := strconv.ParseUint(resp.Header.Get(generationHeader), 10, 64)
	c.mu.Lock()
	if gen != 0 && gen != c.served {
		c.served = gen
		c.changes++
		clear(c.counts)
	}
	c.mu.Unlock()
	// ASK and SELECT share the "head" field; sniff for "boolean".
	var probe struct {
		Boolean *bool `json:"boolean"`
	}
	if err := json.Unmarshal(body, &probe); err != nil {
		return nil, fmt.Errorf("endpoint %s: decoding response: %w", c.name, err)
	}
	if probe.Boolean != nil {
		return &Result{IsAsk: true, Boolean: *probe.Boolean, Generation: gen}, nil
	}
	var doc selectDocument
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, fmt.Errorf("endpoint %s: decoding bindings: %w", c.name, err)
	}
	out := &Result{Vars: doc.Head.Vars, Generation: gen}
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

// Generation counts the replies whose generation differed from the one
// before, the first included. It only grows, also when the endpoint
// restarts; an endpoint that sends no generation never moves it.
func (c *Client) Generation() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.changes
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

// Count estimates how many of the endpoint's triples match (s, p, o), zero
// terms being wildcards. It sends no query of its own for that pattern: it
// starts from the predicate's COUNT (the endpoint's total COUNT when p is a
// wildcard), sent once and then cached, and divides it by 16 for a
// constant subject and by 4 for a constant object. It is 0 only when the
// COUNT is.
//
// A reply to any query that carries a new generation drops the cached
// COUNTs, so a predicate counted 0 is counted again once the endpoint has
// gained triples and replied.
func (c *Client) Count(ctx context.Context, s, p, o rdf.Term) (float64, error) {
	query := "SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }"
	if !p.IsZero() {
		query = fmt.Sprintf("SELECT (COUNT(*) AS ?n) WHERE { ?s %s ?o }", p)
	}
	c.mu.Lock()
	n, ok := c.counts[query]
	c.mu.Unlock()
	if !ok {
		res, err := c.Query(ctx, query)
		if err != nil {
			return 0, err
		}
		if len(res.Rows) == 1 {
			if v, isInt := res.Rows[0]["n"].AsInt(); isInt {
				n = int(v)
			}
		}
		c.mu.Lock()
		if res.Generation == c.served { // no other generation came meanwhile
			c.counts[query] = n
		}
		c.mu.Unlock()
	}
	est := float64(n)
	if !s.IsZero() {
		est /= 16
	}
	if !o.IsZero() {
		est /= 4
	}
	return est, nil
}

// MatchPattern evaluates one triple pattern against the endpoint
// and returns one binding of the pattern's variables per match — what a
// federation's remote source sends per bound-join row.
func (c *Client) MatchPattern(ctx context.Context, tp sparql.TriplePattern) ([]sparql.Binding, error) {
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
	for _, v := range []string{sVar, pVar, oVar} {
		if v != "" && !slices.Contains(vars, v) {
			vars = append(vars, v)
		}
	}
	patternTxt := fmt.Sprintf("%s %s %s .", sTxt, pTxt, oTxt)
	if len(vars) == 0 {
		res, err := c.Query(ctx, "ASK { "+patternTxt+" }")
		if err != nil {
			return nil, err
		}
		if !res.IsAsk {
			return nil, fmt.Errorf("endpoint %s: expected boolean result", c.name)
		}
		if !res.Boolean {
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
	res, err := c.Query(ctx, sb.String())
	if err != nil {
		return nil, err
	}
	return res.Rows, nil
}
