package main

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"alex/internal/endpoint"
	"alex/internal/rdf"
	"alex/internal/store"
)

// writeFixtures drops a tiny two-dataset federation plus a sameAs link
// file into dir and returns the three paths.
func writeFixtures(t *testing.T, dir string) (dbp, nyt, links string) {
	t.Helper()
	dbp = filepath.Join(dir, "dbpedia.nt")
	nyt = filepath.Join(dir, "nytimes.nt")
	links = filepath.Join(dir, "links.nt")
	write := func(path, content string) {
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(dbp, `<http://dbp/LeBron> <http://dbo/award> "NBA MVP 2013" .
`)
	write(nyt, `<http://nyt/article1> <http://nyo/about> <http://nyt/lebron_per> .
<http://nyt/article2> <http://nyo/about> <http://nyt/lebron_per> .
`)
	write(links, `<http://dbp/LeBron> <http://www.w3.org/2002/07/owl#sameAs> <http://nyt/lebron_per> .
`)
	return dbp, nyt, links
}

const joinQuery = `SELECT ?article WHERE { ?player <http://dbo/award> "NBA MVP 2013" . ?article <http://nyo/about> ?player . }`

func TestRunEndToEnd(t *testing.T) {
	dbp, nyt, links := writeFixtures(t, t.TempDir())
	var stdout, stderr strings.Builder
	code := run([]string{"-data", dbp, "-data", nyt, "-links", links, "-query", joinQuery},
		strings.NewReader(""), &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "2 answer(s)") {
		t.Errorf("output missing answers:\n%s", out)
	}
	if !strings.Contains(out, "via 1 sameAs link(s)") {
		t.Errorf("output missing link provenance:\n%s", out)
	}
}

func TestRunQueriesFromStdin(t *testing.T) {
	dbp, _, _ := writeFixtures(t, t.TempDir())
	var stdout, stderr strings.Builder
	code := run([]string{"-data", dbp},
		strings.NewReader("SELECT ?s WHERE { ?s ?p ?o }\n\n"), &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "1 answer(s)") {
		t.Errorf("stdin query produced:\n%s", stdout.String())
	}
}

func TestRunFlagErrors(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run(nil, strings.NewReader(""), &stdout, &stderr); code != 2 {
		t.Errorf("no inputs: exit = %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "at least one -data") {
		t.Errorf("usage error missing:\n%s", stderr.String())
	}
	stderr.Reset()
	if code := run([]string{"-bogus"}, strings.NewReader(""), &stdout, &stderr); code != 2 {
		t.Errorf("bad flag: exit = %d, want 2", code)
	}
	if code := run([]string{"-data", "/nonexistent.nt"}, strings.NewReader(""), &stdout, &stderr); code != 1 {
		t.Errorf("missing file: exit = %d, want 1", code)
	}
}

func TestRunBadQueryFails(t *testing.T) {
	dbp, _, _ := writeFixtures(t, t.TempDir())
	var stdout, stderr strings.Builder
	if code := run([]string{"-data", dbp, "-query", "NOT SPARQL"}, strings.NewReader(""), &stdout, &stderr); code != 1 {
		t.Errorf("bad query: exit = %d, want 1", code)
	}
}

// TestRunRemoteEndpoint drives a query against an in-process sparqld-style
// endpoint through -remote.
func TestRunRemoteEndpoint(t *testing.T) {
	st := store.New("remote", rdf.NewDict())
	st.Add(rdf.Triple{S: rdf.NewIRI("http://r/s"), P: rdf.NewIRI("http://r/p"), O: rdf.NewString("v")})
	srv := httptest.NewServer(endpoint.NewHandler(st))
	defer srv.Close()

	var stdout, stderr strings.Builder
	code := run([]string{"-remote", srv.URL + "/sparql", "-query", "SELECT ?s WHERE { ?s <http://r/p> ?o }"},
		strings.NewReader(""), &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "1 answer(s)") {
		t.Errorf("remote query produced:\n%s", stdout.String())
	}
}

// TestRunPartialOKWithDownRemote: with -partial-ok a dead remote endpoint
// degrades to a partial answer and a warning; without it the query fails.
func TestRunPartialOKWithDownRemote(t *testing.T) {
	dbp, _, _ := writeFixtures(t, t.TempDir())
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer dead.Close()

	base := []string{"-data", dbp, "-remote", dead.URL + "/sparql",
		"-retries", "0", "-timeout", "1s", "-query", "SELECT ?s WHERE { ?s ?p ?o }"}

	var stdout, stderr strings.Builder
	if code := run(base, strings.NewReader(""), &stdout, &stderr); code != 1 {
		t.Errorf("down remote without -partial-ok: exit = %d, want 1", code)
	}

	stdout.Reset()
	stderr.Reset()
	code := run(append(base, "-partial-ok"), strings.NewReader(""), &stdout, &stderr)
	if code != 0 {
		t.Fatalf("down remote with -partial-ok: exit = %d, stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "skipped") {
		t.Errorf("missing skipped-source warning:\n%s", stderr.String())
	}
	if !strings.Contains(stdout.String(), "1 answer(s)") {
		t.Errorf("partial result missing local answer:\n%s", stdout.String())
	}
}

// TestRunTracePrintsPlan: with -trace, stderr holds the federation's plan
// span, one step per planned pattern in planned order with the sources
// chosen for it, including the patterns an empty first pattern kept from
// running.
func TestRunTracePrintsPlan(t *testing.T) {
	dbp, nyt, links := writeFixtures(t, t.TempDir())
	var stdout, stderr strings.Builder
	query := `SELECT ?article WHERE { ?article <http://nyo/about> ?player . ?player <http://dbo/award> "none" . }`
	if code := run([]string{"-data", dbp, "-data", nyt, "-links", links, "-trace", "-query", query},
		strings.NewReader(""), &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, stderr.String())
	}
	lines := strings.Split(stderr.String(), "\n")
	at := slices.IndexFunc(lines, func(l string) bool { return strings.HasPrefix(strings.TrimSpace(l), "plan (") })
	if at < 0 || at+2 >= len(lines) {
		t.Fatalf("stderr holds no plan span:\n%s", stderr.String())
	}
	for i, want := range []string{
		`tp=?player <http://dbo/award> "none" . sources=dbpedia exclusive=1`,
		`tp=?article <http://nyo/about> ?player . sources=nytimes exclusive=1`,
	} {
		if step := lines[at+1+i]; !strings.HasPrefix(strings.TrimSpace(step), "step ") || !strings.HasSuffix(step, want) {
			t.Errorf("plan step %d = %q, want a step ending %q\n%s", i, step, want, stderr.String())
		}
	}
}
