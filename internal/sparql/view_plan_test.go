package sparql

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"alex/internal/obs"
	"alex/internal/rdf"
	"alex/internal/store"
)

// countFlip returns the prefix of a store whose <p> is rarer than its <q>,
// and the triples that, added after it, make <p> the commoner: a planner
// that counts the prefix runs the <p> pattern first, one that counts the
// grown store the <q> pattern.
func countFlip() (prefix, later []rdf.Triple) {
	add := func(out []rdf.Triple, from, to int, pred string) []rdf.Triple {
		for i := from; i < to; i++ {
			out = append(out, rdf.Triple{
				S: rdf.NewIRI(fmt.Sprintf("http://x/e%d", i)),
				P: rdf.NewIRI("http://x/" + pred),
				O: rdf.NewString(fmt.Sprintf("%s%d", pred, i)),
			})
		}
		return out
	}
	prefix = add(add(nil, 0, 5, "q"), 0, 2, "p")
	return prefix, add(nil, 2, 14, "p")
}

// TestPinnedViewPlansByItsCounts: an evaluation over a store view plans by
// the view's counts, so writes after the pin change neither its plan nor
// its rows: both equal those of a fresh store built from the prefix.
func TestPinnedViewPlansByItsCounts(t *testing.T) {
	prefix, later := countFlip()
	run := func(v store.View, query string) string {
		q, err := Parse(query)
		if err != nil {
			t.Fatal(err)
		}
		tr := obs.NewTrace("query")
		res, err := Compile(q).Eval(obs.WithTrace(context.Background(), tr), StoreSolver(v), EvalOptions{})
		var b strings.Builder
		if err == nil {
			renderEval(&b, res.Materialize(), tr, nil)
		} else {
			renderEval(&b, nil, tr, err)
		}
		return b.String()
	}
	fresh := store.New("fresh", rdf.NewDict())
	fresh.Load(prefix)
	grown := store.New("grown", rdf.NewDict())
	grown.Load(prefix)
	pinned := grown.Now()
	grown.Load(later)
	for _, query := range []string{
		`SELECT ?x ?y ?z WHERE { ?x <http://x/q> ?z . ?x <http://x/p> ?y }`,
		`SELECT ?x ?y ?z WHERE { ?x <http://x/p> ?y . ?x <http://x/q> ?z }`,
	} {
		if got, want := run(pinned, query), run(fresh.Now(), query); got != want {
			t.Errorf("%s\npinned view:\n%s\nfresh store of the prefix:\n%s", query, got, want)
		}
	}
}
