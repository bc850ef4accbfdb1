package endpoint

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"alex/internal/rdf"
	"alex/internal/sparql"
	"alex/internal/store"
)

func testStore() *store.Store {
	s := store.New("people", rdf.NewDict())
	add := func(subj, pred string, obj rdf.Term) {
		s.Add(rdf.Triple{S: rdf.NewIRI("http://x/" + subj), P: rdf.NewIRI("http://x/" + pred), O: obj})
	}
	add("alice", "name", rdf.NewString("Alice"))
	add("alice", "age", rdf.NewInt(30))
	add("bob", "name", rdf.NewLangString("Bob", "en"))
	add("alice", "knows", rdf.NewIRI("http://x/bob"))
	return s
}

func newTestServer(t *testing.T) (*httptest.Server, *Client) {
	t.Helper()
	srv := httptest.NewServer(NewHandler(testStore()))
	t.Cleanup(srv.Close)
	return srv, NewClient("people", srv.URL+"/sparql", srv.Client())
}

func TestServerSelectJSON(t *testing.T) {
	srv, _ := newTestServer(t)
	resp, err := http.Get(srv.URL + "/sparql?query=" + url.QueryEscape(
		`SELECT ?n WHERE { <http://x/alice> <http://x/name> ?n }`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/sparql-results+json" {
		t.Errorf("content type = %s", ct)
	}
	var doc struct {
		Head struct {
			Vars []string `json:"vars"`
		} `json:"head"`
		Results struct {
			Bindings []map[string]map[string]string `json:"bindings"`
		} `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Head.Vars) != 1 || doc.Head.Vars[0] != "n" {
		t.Errorf("vars = %v", doc.Head.Vars)
	}
	if len(doc.Results.Bindings) != 1 {
		t.Fatalf("bindings = %v", doc.Results.Bindings)
	}
	b := doc.Results.Bindings[0]["n"]
	if b["type"] != "literal" || b["value"] != "Alice" {
		t.Errorf("binding = %v", b)
	}
}

func TestServerAskJSON(t *testing.T) {
	srv, _ := newTestServer(t)
	resp, err := http.Get(srv.URL + "/sparql?query=" + url.QueryEscape(
		`ASK { <http://x/alice> <http://x/knows> <http://x/bob> }`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Boolean bool `json:"boolean"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !doc.Boolean {
		t.Error("ASK = false, want true")
	}
}

func TestServerErrors(t *testing.T) {
	srv, _ := newTestServer(t)
	// Missing query parameter.
	resp, _ := http.Get(srv.URL + "/sparql")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing query: status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	// Malformed query.
	resp, _ = http.Get(srv.URL + "/sparql?query=BOGUS")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad query: status = %d", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestServerSparqlQueryBody(t *testing.T) {
	srv, _ := newTestServer(t)
	resp, err := http.Post(srv.URL+"/sparql", "application/sparql-query",
		strings.NewReader(`SELECT ?n WHERE { <http://x/alice> <http://x/name> ?n }`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("status = %d", resp.StatusCode)
	}
}

func TestServerStats(t *testing.T) {
	srv, _ := newTestServer(t)
	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats["name"] != "people" || stats["triples"].(float64) != 4 {
		t.Errorf("stats = %v", stats)
	}
}

func TestClientQuery(t *testing.T) {
	_, c := newTestServer(t)
	res, err := c.QueryContext(context.Background(), `SELECT ?s ?n WHERE { ?s <http://x/name> ?n } ORDER BY ?s`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0]["n"] != rdf.NewString("Alice") {
		t.Errorf("row 0 = %v", res.Rows[0])
	}
	// Language tags survive the round trip.
	if res.Rows[1]["n"] != rdf.NewLangString("Bob", "en") {
		t.Errorf("row 1 = %v", res.Rows[1])
	}
}

func TestClientTypedLiteralRoundTrip(t *testing.T) {
	_, c := newTestServer(t)
	res, err := c.QueryContext(context.Background(), `SELECT ?a WHERE { <http://x/alice> <http://x/age> ?a }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0]["a"] != rdf.NewInt(30) {
		t.Errorf("typed literal = %#v", res.Rows[0]["a"])
	}
}

func TestClientAskAndCaches(t *testing.T) {
	_, c := newTestServer(t)
	has, err := c.HasPredicateContext(context.Background(), rdf.NewIRI("http://x/name"))
	if err != nil || !has {
		t.Fatalf("HasPredicate = %v, %v", has, err)
	}
	has, err = c.HasPredicateContext(context.Background(), rdf.NewIRI("http://x/nonexistent"))
	if err != nil || has {
		t.Fatalf("HasPredicate absent = %v, %v", has, err)
	}
	n, err := c.PredicateCountContext(context.Background(), rdf.NewIRI("http://x/name"))
	if err != nil || n != 2 {
		t.Fatalf("PredicateCount = %d, %v", n, err)
	}
	total, err := c.SizeContext(context.Background())
	if err != nil || total != 4 {
		t.Fatalf("Size = %d, %v", total, err)
	}
	// Cached lookups answer identically.
	if n2, _ := c.PredicateCountContext(context.Background(), rdf.NewIRI("http://x/name")); n2 != n {
		t.Errorf("cached count = %d", n2)
	}
}

func TestClientMatchPattern(t *testing.T) {
	_, c := newTestServer(t)
	// Unbound subject/object.
	tp := mustPattern(t, "?s", "http://x/name", "?n")
	rows, err := c.MatchPatternContext(context.Background(), tp)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	// A constant subject is sent as one; only the variable comes back.
	rows, err = c.MatchPatternContext(context.Background(), mustPattern(t, "http://x/alice", "http://x/name", "?n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || len(rows[0]) != 1 || rows[0]["n"].Value != "Alice" {
		t.Errorf("bound rows = %v", rows)
	}
	// Fully bound: ASK semantics.
	full := mustPattern(t, "http://x/alice", "http://x/knows", "http://x/bob")
	rows, err = c.MatchPatternContext(context.Background(), full)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Errorf("fully-bound match = %v", rows)
	}
	missing := mustPattern(t, "http://x/bob", "http://x/knows", "http://x/alice")
	rows, err = c.MatchPatternContext(context.Background(), missing)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Errorf("absent fully-bound match = %v", rows)
	}
}

func TestClientServerDown(t *testing.T) {
	c := NewClient("gone", "http://127.0.0.1:1/sparql", nil)
	if _, err := c.QueryContext(context.Background(), "SELECT ?s WHERE { ?s ?p ?o }"); err == nil {
		t.Error("expected connection error")
	}
}

func TestDecodeTermUnknownType(t *testing.T) {
	if _, err := decodeTerm(termDocument{Type: "mystery"}); err == nil {
		t.Error("unknown term type decoded")
	}
}

// mustPattern builds a triple pattern from strings: "?x" means variable,
// anything else an IRI.
func mustPattern(t *testing.T, s, p, o string) sparql.TriplePattern {
	t.Helper()
	node := func(v string) sparql.Node {
		if strings.HasPrefix(v, "?") {
			return sparql.VarNode(v[1:])
		}
		return sparql.TermNode(rdf.NewIRI(v))
	}
	return sparql.TriplePattern{S: node(s), P: node(p), O: node(o)}
}

func TestServerConstruct(t *testing.T) {
	srv, _ := newTestServer(t)
	resp, err := http.Get(srv.URL + "/sparql?query=" + url.QueryEscape(
		`CONSTRUCT { ?s <http://out/named> ?n } WHERE { ?s <http://x/name> ?n }`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/n-triples" {
		t.Errorf("content type = %s", ct)
	}
	triples, err := rdf.NewReader(resp.Body).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(triples) != 2 {
		t.Errorf("triples = %v", triples)
	}
}
