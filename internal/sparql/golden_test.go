package sparql

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"alex/internal/obs"
)

// This file pins what the equivalence harness does not: the order rows are
// emitted in (the harness compares multisets unless the query has ORDER
// BY) and the join order the planner chose. eval.golden was recorded at the
// commit before the evaluation entry points were merged into one; the
// engine must reproduce it byte for byte, planner on and off.
//
// Regenerate with `go test ./internal/sparql -run TestEvalGolden -update`
// only when an answer, an order or a plan is meant to change, and say why
// in CHANGES.md.

var updateGolden = flag.Bool("update", false, "rewrite testdata/eval.golden")

const evalGoldenPath = "testdata/eval.golden"

// planQueries join the corpus in the golden only: the corpus was written to
// cover operators and reorders one BGP, so these are written to make the
// planner choose — a selective entry point written last, ties, a BGP that
// starts with bound slots (after VALUES, inside OPTIONAL and EXISTS), an
// unknown constant, and a variable predicate.
var planQueries = []string{
	`SELECT ?s ?n ?a WHERE { ?s ?p ?o . ?s <http://x/age> ?a . ?s <http://x/name> ?n . ?s <http://x/knows> <http://x/bob> }`,
	`SELECT ?a ?b WHERE { ?a <http://x/name> ?an . ?b <http://x/name> ?bn . ?a <http://x/knows> ?b }`,
	`SELECT ?a ?c WHERE { ?b <http://x/knows> ?c . ?a <http://x/knows> ?b }`,
	`SELECT ?s ?n WHERE { ?s <http://x/name> ?n . ?s <http://x/age> ?a . ?s a <http://x/Person> }`,
	`SELECT ?s ?o WHERE { ?s ?p ?o . ?s <http://x/name> "Carol" }`,
	`SELECT ?s WHERE { ?s <http://x/name> ?n . ?s <http://x/knows> <http://x/nobody> }`,
	`SELECT ?k ?n WHERE { VALUES ?k { <http://x/bob> <http://x/alice> } ?s ?p ?o . ?s <http://x/knows> ?k . ?k <http://x/name> ?n }`,
	`SELECT ?s ?kn WHERE { ?s <http://x/age> ?a OPTIONAL { ?k ?p ?o . ?k <http://x/name> ?kn . ?s <http://x/knows> ?k } }`,
	`SELECT ?s WHERE { ?s <http://x/name> ?n FILTER EXISTS { ?x ?p ?s . ?x <http://x/age> ?xa . ?x <http://x/knows> ?s } }`,
	`SELECT ?p ?q WHERE { ?s ?p ?o . ?o ?q ?z . ?s <http://x/age> ?a }`,
}

// renderEval writes one evaluation in the golden file's line format: the
// planner's chosen orders (every "plan" span of the trace, in recording
// order), then the projection, the rows as emitted with terms in N-Triples
// syntax, and the constructed triples.
func renderEval(b *strings.Builder, res *Result, tr *obs.Trace, err error) {
	for _, sp := range tr.Root().FindAll("plan") {
		order, _ := sp.Str("order")
		patterns, _ := sp.Str("patterns")
		fmt.Fprintf(b, "plan: %s | %s\n", order, patterns)
	}
	if err != nil {
		fmt.Fprintf(b, "error: %v\n", err)
		return
	}
	fmt.Fprintf(b, "vars: %s\n", strings.Join(res.Vars, " "))
	for _, row := range res.Rows {
		vars := make([]string, 0, len(row))
		for v := range row {
			vars = append(vars, v)
		}
		sort.Strings(vars)
		b.WriteString("row:")
		for _, v := range vars {
			fmt.Fprintf(b, " ?%s=%s", v, row[v])
		}
		b.WriteByte('\n')
	}
	for _, t := range res.Triples {
		fmt.Fprintf(b, "triple: %s\n", t)
	}
}

func TestEvalGolden(t *testing.T) {
	st := peopleStore(t)
	queries := append(loadLines(t, filepath.Join("testdata", "equiv_corpus.rq")), loadFuzzSeeds(t)...)
	queries = append(queries, planQueries...)
	var b strings.Builder
	for _, query := range queries {
		q, err := Parse(query)
		if err != nil {
			continue
		}
		fmt.Fprintf(&b, "== %q\n", query)
		for _, c := range []struct {
			label string
			opts  EvalOptions
		}{{"planned", EvalOptions{}}, {"written", EvalOptions{DisablePlan: true}}} {
			fmt.Fprintf(&b, "-- %s\n", c.label)
			tr := obs.NewTrace("query")
			c.opts.Trace = tr
			res, err := evalStore(context.Background(), st, q, c.opts)
			renderEval(&b, res, tr, err)
		}
	}
	if *updateGolden {
		if err := os.WriteFile(evalGoldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(evalGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("evaluation differs from %s (rerun with -update only for an intended change):\n%s", evalGoldenPath, firstDiff(got, string(want)))
	}
}

// firstDiff names the first line where got and want part.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d\n got: %s\nwant: %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("lengths differ: got %d lines, want %d", len(g), len(w))
}
