package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// This file pins the reply bytes of every configuration sparqld serves: one
// store, one durable store (cold and recovered), a federation with -links,
// and a -feedback federation before and after one flushed POST /feedback.
// For each, testdata/serve.golden holds the /sparql replies to a fixed query
// set and the /stats reply.
//
// Regenerate with `go test ./cmd/sparqld -run TestServeGolden -update` only
// for an intended change of what sparqld serves.

var updateServe = flag.Bool("update", false, "rewrite testdata/serve.golden")

const serveGoldenPath = "testdata/serve.golden"

// serveQueries cover the shapes a served reply distinguishes: a scan, a
// cross-dataset join through sameAs, a literal join, ASK, an aggregate,
// CONSTRUCT and a parse error.
var serveQueries = []string{
	`SELECT ?s ?p ?o WHERE { ?s ?p ?o }`,
	`SELECT ?player ?article WHERE { ?player <http://dbo/award> ?a . ?article <http://nyo/about> ?player }`,
	`SELECT ?n ?l WHERE { ?p <http://dbo/name> ?n . ?p <http://nyo/label> ?l }`,
	`ASK { <http://dbp/Tim> <http://dbo/name> "Tim Duncan" }`,
	`SELECT (COUNT(?s) AS ?n) WHERE { ?s ?p ?o }`,
	`CONSTRUCT { ?s <http://x/knownAs> ?n } WHERE { ?s <http://dbo/name> ?n }`,
	`NOT SPARQL`,
}

// serveFixtures writes a richer pair of data sets than writeFixtures: three
// players, three articles, and a link set with one wrong link.
func serveFixtures(t *testing.T, dir string) (dbp, nyt, links string) {
	t.Helper()
	dbp = filepath.Join(dir, "dbpedia.nt")
	nyt = filepath.Join(dir, "nytimes.nt")
	links = filepath.Join(dir, "links.nt")
	write := func(path string, lines ...string) {
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(dbp,
		`<http://dbp/LeBron> <http://dbo/award> "NBA MVP 2013" .`,
		`<http://dbp/LeBron> <http://dbo/name> "LeBron James" .`,
		`<http://dbp/Kobe> <http://dbo/award> "NBA MVP 2008" .`,
		`<http://dbp/Kobe> <http://dbo/name> "Kobe Bryant" .`,
		`<http://dbp/Tim> <http://dbo/name> "Tim Duncan" .`,
		`<http://dbp/Tim> <http://dbo/award> "NBA MVP 2003" .`)
	write(nyt,
		`<http://nyt/lebron_per> <http://nyo/label> "LeBron James" .`,
		`<http://nyt/kobe_per> <http://nyo/label> "Kobe Bryant" .`,
		`<http://nyt/tim_per> <http://nyo/label> "Tim Duncan" .`,
		`<http://nyt/article1> <http://nyo/about> <http://nyt/lebron_per> .`,
		`<http://nyt/article2> <http://nyo/about> <http://nyt/kobe_per> .`,
		`<http://nyt/article3> <http://nyo/about> <http://nyt/tim_per> .`)
	const sameAs = "<http://www.w3.org/2002/07/owl#sameAs>"
	write(links,
		`<http://dbp/LeBron> `+sameAs+` <http://nyt/lebron_per> .`,
		`<http://dbp/Kobe> `+sameAs+` <http://nyt/kobe_per> .`,
		`<http://dbp/Kobe> `+sameAs+` <http://nyt/tim_per> .`)
	return dbp, nyt, links
}

// serveGoldenFeedback approves one seeded link and rejects the wrong one.
const serveGoldenFeedback = `{"items":[` +
	`{"left":"http://dbp/LeBron","right":"http://nyt/lebron_per","approved":true},` +
	`{"left":"http://dbp/Kobe","right":"http://nyt/tim_per","approved":false}` +
	`],"flush":true}`

func serveReply(h http.Handler, method, target, body string) (int, []byte) {
	req := httptest.NewRequest(method, target, strings.NewReader(body))
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// serveArgs builds the handler sparqld serves for a command line.
func serveArgs(t *testing.T, args ...string) (http.Handler, func() error) {
	t.Helper()
	cfg, err := parseConfig(args, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	h, cleanup, err := buildHandler(cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	return h, cleanup
}

func TestServeGolden(t *testing.T) {
	dir := t.TempDir()
	dbp, nyt, links := serveFixtures(t, dir)
	var got bytes.Buffer
	record := func(name string, h http.Handler) {
		for _, q := range serveQueries {
			code, body := serveReply(h, "GET", "/sparql?query="+url.QueryEscape(q), "")
			fmt.Fprintf(&got, "# %s /sparql %d %s\n", name, code, q)
			got.Write(body)
			if len(body) > 0 && body[len(body)-1] != '\n' {
				got.WriteByte('\n')
			}
		}
		code, body := serveReply(h, "GET", "/stats", "")
		fmt.Fprintf(&got, "# %s /stats %d\n", name, code)
		got.Write(body)
	}
	h, _ := serveArgs(t, "-data", dbp)
	record("single", h)

	stateDir := filepath.Join(dir, "state")
	for _, name := range []string{"durable-cold", "durable-restart"} {
		h, cleanup := serveArgs(t, "-data", dbp, "-data-dir", stateDir)
		record(name, h)
		if err := cleanup(); err != nil {
			t.Fatal(err)
		}
	}

	h, _ = serveArgs(t, "-data", dbp, "-data", nyt, "-links", links)
	record("federation", h)

	h, _ = serveArgs(t, "-data", dbp, "-data", nyt, "-links", links, "-feedback")
	record("feedback-before", h)
	code, body := serveReply(h, "POST", "/feedback", serveGoldenFeedback)
	fmt.Fprintf(&got, "# feedback /feedback %d\n", code)
	got.Write(body)
	record("feedback-after", h)

	if *updateServe {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(serveGoldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(serveGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("reply bytes differ from %s (rerun with -update only for an intended change):\n%s",
			serveGoldenPath, firstServeDiff(got.Bytes(), want))
	}
}

func firstServeDiff(got, want []byte) string {
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			return fmt.Sprintf("line %d:\n got: %q\nwant: %q", i+1, gl[i], wl[i])
		}
	}
	return fmt.Sprintf("line counts differ: got %d, want %d", len(gl), len(wl))
}
