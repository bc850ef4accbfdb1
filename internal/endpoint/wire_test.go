package endpoint

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"net/url"
	"os"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"alex/internal/rdf"
	"alex/internal/sparql"
	"alex/internal/store"
)

// This file pins the /sparql reply bytes. wire.golden was recorded from
// the reflective encoding/json encoder (a results document of
// map[string]termDocument rows) before the append-style encoder replaced
// it; the replacement must reproduce it byte for byte, through both result
// representations: id rows (NewHandler) and []Binding (NewQueryHandler).
//
// Regenerate with `go test ./internal/endpoint -run TestWireGolden -update`
// only for an intended change of the wire format.

var updateWire = flag.Bool("update", false, "rewrite testdata/wire.golden")

const wireGoldenPath = "testdata/wire.golden"

// wireStore holds every term shape the results format distinguishes and
// every class of character encoding/json escapes.
func wireStore() *store.Store {
	st := store.New("wire", rdf.NewDict())
	iri := func(s string) rdf.Term { return rdf.NewIRI("http://w/" + s) }
	add := func(s rdf.Term, p string, o rdf.Term) { st.Add(rdf.Triple{S: s, P: iri(p), O: o}) }
	s1, s2, s3 := iri("s1"), iri("s2"), iri("s3")
	add(s1, "iri", iri("o"))
	add(s1, "blank", rdf.NewBlank("b0"))
	add(rdf.NewBlank("b1"), "plain", rdf.NewString("plain"))
	add(s1, "lang", rdf.NewLangString("héllo wörld", "fr"))
	add(s1, "typed", rdf.NewInt(42))
	add(s1, "typed", rdf.NewTyped("4.5", rdf.XSDDouble))
	add(s1, "typed", rdf.NewTyped("str", rdf.XSDString))
	add(s1, "typed", rdf.NewTyped("2016-05-16", rdf.XSDDate))
	for _, v := range []string{
		`quote " and backslash \ and slash /`,
		"line\nbreak\ttab\rreturn",
		"ctl \x01 \x1f \b \f del \x7f",
		"<a href='x'>&amp;</a>",
		"seps \u2028 and \u2029",
		"bad \xff byte and truncated \xe2\x82",
		"astral \U0001F600 and bmp \u00e9\u4e16",
		"",
	} {
		add(s1, "odd", rdf.NewString(v))
	}
	add(s1, "odd", rdf.NewLangString("tab\there \"q\"", "en-GB"))
	add(s1, "odd", rdf.NewTyped("a<b>&\u2028", "http://w/dt?x=<1>&y=\"2\""))
	add(iri("we\"ird\\iri\n"), "odd", rdf.NewBlank("b\"2"))
	for i, s := range []rdf.Term{s1, s2, s3} {
		add(s, "g", rdf.NewString([]string{"a", "b", "a"}[i]))
		add(s, "x", rdf.NewInt(int64(10*(i+1))))
	}
	add(s2, "opt", rdf.NewString("only s2"))
	return st
}

var wireQueries = []string{
	`SELECT ?s ?p ?o WHERE { ?s ?p ?o }`,
	`SELECT * WHERE { ?s <http://w/odd> ?v }`,
	`SELECT ?s ?v ?w WHERE { ?s <http://w/g> ?v . OPTIONAL { ?s <http://w/opt> ?w } }`,
	`SELECT (COUNT(?s) AS ?n) WHERE { ?s <http://w/g> ?g } GROUP BY ?g`,
	`SELECT ?g (COUNT(?s) AS ?n) (MAX(?x) AS ?mx) (AVG(?x) AS ?av) WHERE { ?s <http://w/g> ?g . ?s <http://w/x> ?x } GROUP BY ?g ORDER BY DESC(?n)`,
	`SELECT (COUNT(?s) AS ?n) WHERE { ?s <http://w/none> ?o }`,
	`SELECT ?s WHERE { ?s <http://w/none> ?o }`,
	`SELECT ?s ?nope WHERE { ?s <http://w/g> ?v }`,
	`SELECT ?s ?s WHERE { ?s <http://w/g> ?v }`,
	`SELECT ?s ?u WHERE { ?s <http://w/g> ?v . BIND(STR(?v) AS ?u) }`,
	`SELECT ?s ?k WHERE { VALUES ?k { "not in the dict" <http://w/nor-this> } ?s <http://w/opt> ?o }`,
	`SELECT DISTINCT ?v WHERE { ?s <http://w/g> ?v } ORDER BY DESC(?v)`,
	`SELECT ?s ?x WHERE { ?s <http://w/x> ?x } ORDER BY DESC(?x) LIMIT 2 OFFSET 1`,
	`ASK { <http://w/s1> <http://w/iri> ?o }`,
	`ASK { <http://w/s1> <http://w/none> ?o }`,
}

// handResults are []Binding results no evaluator produces but a QueryFunc
// may: nil and empty shapes, rows carrying variables outside Vars, and a
// variable name the string escaper has to touch.
var handResults = map[string]*Result{
	"hand:nil":   {},
	"hand:empty": {Vars: []string{}, Rows: []sparql.Binding{}},
	"hand:extra": {Vars: []string{"b", "a"}, Rows: []sparql.Binding{
		{"a": rdf.NewIRI("http://w/a"), "b": rdf.NewBlank("x"), "zz": rdf.NewString("outside Vars"), "B": rdf.NewInt(1)},
		{},
		{"b": rdf.NewLangString("only b", "en")},
		{"0": rdf.NewString("another outsider"), "a": rdf.NewString("a")},
	}},
	"hand:name": {Vars: []string{"we\"ird<\u2028>"}, Rows: []sparql.Binding{
		{"we\"ird<\u2028>": rdf.NewString("v")},
	}},
	"hand:ask": {IsAsk: true, Boolean: true},
}

// wireHandlers returns the two representations under test: the slot
// handler, and a generic handler whose results are materialized Bindings.
func wireHandlers(st *store.Store) (slots, rows *Handler) {
	rows = NewQueryHandler(func(_ context.Context, query string) (*Result, error) {
		if res, ok := handResults[query]; ok {
			return res, nil
		}
		q, err := sparql.Parse(query)
		if err != nil {
			return nil, &BadQueryError{Err: err}
		}
		res, err := sparql.Execute(st, query)
		if err != nil {
			return nil, err
		}
		return &Result{Vars: res.Vars, Rows: res.Rows, IsAsk: q.Ask, Boolean: q.Ask && res.AskResult()}, nil
	}, nil)
	return NewHandler(st), rows
}

func wireReply(h *Handler, query string) (int, []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/sparql?query="+url.QueryEscape(query), nil))
	return rec.Code, rec.Body.Bytes()
}

func TestWireGolden(t *testing.T) {
	slots, rows := wireHandlers(wireStore())
	var hands []string
	for name := range handResults {
		hands = append(hands, name)
	}
	sort.Strings(hands)
	var got bytes.Buffer
	record := func(repr string, h *Handler, query string) {
		code, body := wireReply(h, query)
		fmt.Fprintf(&got, "# %s %d %s\n", repr, code, query)
		got.Write(body)
	}
	for _, q := range wireQueries {
		record("slots", slots, q)
		record("rows", rows, q)
	}
	for _, name := range hands {
		record("rows", rows, name)
	}
	if *updateWire {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(wireGoldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(wireGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("reply bytes differ from %s (rerun with -update only for an intended change):\n%s",
			wireGoldenPath, firstWireDiff(got.Bytes(), want))
	}
}

// TestWireGoldenDecodes holds the other side of the contract: what the
// handler writes, endpoint.Client reads back to the evaluator's answer.
func TestWireGoldenDecodes(t *testing.T) {
	st := wireStore()
	slots, rows := wireHandlers(st)
	for name, h := range map[string]*Handler{"slots": slots, "rows": rows} {
		srv := httptest.NewServer(h)
		c := NewClient(name, srv.URL+"/sparql", srv.Client())
		for _, query := range wireQueries {
			q, err := sparql.Parse(query)
			if err != nil {
				t.Fatal(err)
			}
			want, err := sparql.Execute(st, query)
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.QueryContext(context.Background(), query)
			if err != nil {
				t.Errorf("%s: %s: %v", name, query, err)
				continue
			}
			if q.Ask {
				if !got.IsAsk || got.Boolean != want.AskResult() {
					t.Errorf("%s: %s: ask = %+v, want %v", name, query, got, want.AskResult())
				}
				continue
			}
			if len(got.Rows) != len(want.Rows) {
				t.Errorf("%s: %s: %d rows, want %d", name, query, len(got.Rows), len(want.Rows))
				continue
			}
			for i := range want.Rows {
				if !reflect.DeepEqual(got.Rows[i], wireRoundTrip(want.Rows[i])) {
					t.Errorf("%s: %s: row %d = %v, want %v", name, query, i, got.Rows[i], want.Rows[i])
				}
			}
		}
		srv.Close()
	}
}

// wireRoundTrip is what a term becomes after the format's documented
// losses: invalid UTF-8 is replaced by U+FFFD on the way out.
func wireRoundTrip(b sparql.Binding) sparql.Binding {
	out := sparql.Binding{}
	for v, t := range b {
		t.Value = string([]rune(t.Value)) // each invalid byte becomes one U+FFFD
		t.Datatype = string([]rune(t.Datatype))
		out[v] = t
	}
	return out
}

func firstWireDiff(got, want []byte) string {
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			return fmt.Sprintf("line %d:\n got: %q\nwant: %q", i+1, gl[i], wl[i])
		}
	}
	return fmt.Sprintf("line counts differ: got %d, want %d", len(gl), len(wl))
}

// TestAppendStringMatchesEncodingJSON holds the string escaper against the
// encoder it replaced: every single byte, every rune the old encoder
// treats specially, and random mixtures of both.
func TestAppendStringMatchesEncodingJSON(t *testing.T) {
	reference := func(s string) string {
		var b bytes.Buffer
		enc := json.NewEncoder(&b)
		enc.SetEscapeHTML(false)
		if err := enc.Encode(s); err != nil {
			t.Fatal(err)
		}
		return strings.TrimSuffix(b.String(), "\n")
	}
	check := func(s string) {
		t.Helper()
		if got, want := string(appendString(nil, s)), reference(s); got != want {
			t.Fatalf("appendString(%q) = %s, encoding/json gives %s", s, got, want)
		}
	}
	var pieces []string
	for c := 0; c < 256; c++ {
		pieces = append(pieces, string([]byte{byte(c)}))
	}
	pieces = append(pieces, "\u2027", "\u2028", "\u2029", "\u202a", "\ufffd", "é", "\u4e16", "\U0001F600",
		"\xe2\x80", "\xf0\x9f\x98", "\xc0\xaf", "\xed\xa0\x80", "plain ascii ", "<>&'/")
	for _, p := range pieces {
		check(p)
		check("a" + p + "z")
	}
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 5000; i++ {
		var s string
		for n := rng.Intn(8); n > 0; n-- {
			s += pieces[rng.Intn(len(pieces))]
		}
		check(s)
	}
}

// TestInvalidRegexIsNoRowsNotAnError: REGEX with a pattern that does not
// compile rejects every row; the reply is an empty result, not a 400 or a
// 500.
func TestInvalidRegexIsNoRowsNotAnError(t *testing.T) {
	slots, rows := wireHandlers(wireStore())
	for name, h := range map[string]*Handler{"slots": slots, "rows": rows} {
		code, body := wireReply(h, `SELECT ?s WHERE { ?s <http://w/g> ?v . FILTER(REGEX(?v, "(")) }`)
		if want := `{"head":{"vars":["s"]},"results":{"bindings":[]}}` + "\n"; code != 200 || string(body) != want {
			t.Errorf("%s: status %d, body %q; want 200 and %q", name, code, body, want)
		}
	}
}

// TestWireBufferReuse answers different queries from 8 goroutines at
// once: replies share pooled buffers, and each must still be its own
// golden bytes. Run under -race.
func TestWireBufferReuse(t *testing.T) {
	slots, rows := wireHandlers(wireStore())
	want := make([][2][]byte, len(wireQueries))
	for i, q := range wireQueries {
		_, want[i][0] = wireReply(slots, q)
		_, want[i][1] = wireReply(rows, q)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < 200; n++ {
				i := (g + n) % len(wireQueries)
				for k, h := range []*Handler{slots, rows} {
					if _, got := wireReply(h, wireQueries[i]); !bytes.Equal(got, want[i][k]) {
						t.Errorf("concurrent reply to %s differs from the serial one", wireQueries[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
