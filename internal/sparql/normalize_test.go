package sparql

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"

	"alex/internal/rdf"
	"alex/internal/store"
)

// normVariantGroups lists groups of queries that must share one
// normalized key: whitespace, comments, keyword case, $-sigil variables
// and string-escape spelling are all normalization-invisible.
var normVariantGroups = [][]string{
	{
		`SELECT ?n WHERE { <http://x/alice> <http://x/name> ?n }`,
		"select ?n\nwhere {\n  <http://x/alice> <http://x/name> ?n\n}",
		`SELECT ?n # project the name
		 WHERE { <http://x/alice> <http://x/name> ?n } # done`,
		`Select $n Where { <http://x/alice> <http://x/name> $n }`,
	},
	{
		`SELECT ?s WHERE { ?s <http://x/name> ?n . FILTER(?n != "Bob") }`,
		`select ?s where{?s <http://x/name> ?n.filter(?n!="Bob")}`,
	},
	{
		`SELECT ?s WHERE { ?s <http://x/name> "A\"B" }`,
		"SELECT ?s WHERE { ?s <http://x/name> \"A\\\"B\" }",
	},
	{
		`SELECT ?p (COUNT(?o) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?p ORDER BY ?n`,
		`select ?p (count(?o) as ?n) where { ?s ?p ?o } group by ?p order by ?n`,
	},
	{
		`ASK { <http://x/alice> <http://x/knows> <http://x/bob> }`,
		"ask{<http://x/alice>\t<http://x/knows>\r\n<http://x/bob>}",
	},
}

func TestNormalizeQueryVariants(t *testing.T) {
	st := peopleStore(t)
	for _, group := range normVariantGroups {
		keys := make([]string, len(group))
		for i, q := range group {
			k, err := NormalizeQuery(q)
			if err != nil {
				t.Fatalf("NormalizeQuery(%q): %v", q, err)
			}
			keys[i] = k
		}
		for i := 1; i < len(group); i++ {
			if keys[i] != keys[0] {
				t.Errorf("variant keys differ:\n%q -> %q\n%q -> %q",
					group[0], keys[0], group[i], keys[i])
			}
		}
		// Equal keys must mean identical prepared forms and results.
		base, err := Prepare(group[0])
		if err != nil {
			t.Fatalf("Prepare(%q): %v", group[0], err)
		}
		for _, q := range group[1:] {
			p, err := Prepare(q)
			if err != nil {
				t.Fatalf("Prepare(%q): %v", q, err)
			}
			if !reflect.DeepEqual(p.layout, base.layout) {
				t.Errorf("slot layouts differ for %q vs %q", group[0], q)
			}
			checkNormalizedEquivalence(t, st, group[0], q)
		}
	}
}

func TestNormalizeQueryIdempotent(t *testing.T) {
	for _, group := range normVariantGroups {
		for _, q := range group {
			once, err := NormalizeQuery(q)
			if err != nil {
				t.Fatal(err)
			}
			twice, err := NormalizeQuery(once)
			if err != nil {
				t.Fatalf("normalized %q fails to re-normalize: %v", once, err)
			}
			if once != twice {
				t.Errorf("not idempotent: %q -> %q -> %q", q, once, twice)
			}
		}
	}
}

// checkNormalizedEquivalence asserts the original and its normalized form
// produce identical results (vars, row multiset, row order when ordered,
// constructed graph, ask verdict) — the prepared-query cache's soundness
// condition, checked with the same canonicalization as the slot-engine
// equivalence harness.
func checkNormalizedEquivalence(t *testing.T, st *store.Store, orig, variant string) {
	t.Helper()
	q1, err1 := Parse(orig)
	q2, err2 := Parse(variant)
	if (err1 != nil) != (err2 != nil) {
		t.Fatalf("parse divergence: %q err=%v, %q err=%v", orig, err1, variant, err2)
	}
	if err1 != nil {
		return
	}
	r1, err1 := evalStore(context.Background(), st, q1, EvalOptions{})
	r2, err2 := evalStore(context.Background(), st, q2, EvalOptions{})
	if (err1 != nil) != (err2 != nil) {
		t.Fatalf("eval divergence: %q err=%v, %q err=%v", orig, err1, variant, err2)
	}
	if err1 != nil {
		return
	}
	if q1.Ask {
		if r1.AskResult() != r2.AskResult() {
			t.Fatalf("ask divergence for %q vs %q", orig, variant)
		}
		return
	}
	if strings.Join(r1.Vars, ",") != strings.Join(r2.Vars, ",") {
		t.Fatalf("vars divergence for %q vs %q: %v vs %v", orig, variant, r1.Vars, r2.Vars)
	}
	c1, c2 := canonRows(r1.Rows), canonRows(r2.Rows)
	if strings.Join(c1, "\n") != strings.Join(c2, "\n") {
		t.Fatalf("row divergence for %q vs %q:\n%v\n%v", orig, variant, c1, c2)
	}
	if len(q1.OrderBy) > 0 {
		for i := range r1.Rows {
			a, b := canonRows(r1.Rows[i:i+1]), canonRows(r2.Rows[i:i+1])
			if a[0] != b[0] {
				t.Fatalf("ordered row %d divergence for %q vs %q", i, orig, variant)
			}
		}
	}
	t1, t2 := canonTriples(r1.Triples), canonTriples(r2.Triples)
	if strings.Join(t1, "\n") != strings.Join(t2, "\n") {
		t.Fatalf("construct divergence for %q vs %q", orig, variant)
	}
}

// fuzzStore is the shared fixture of FuzzNormalizeQuery: fuzz executions
// are massively repeated, so the store is built once per process.
var fuzzStore = sync.OnceValue(func() *store.Store {
	s := store.New("people", rdf.NewDict())
	add := func(subj, pred string, obj rdf.Term) {
		s.Add(rdf.Triple{S: rdf.NewIRI("http://x/" + subj), P: rdf.NewIRI("http://x/" + pred), O: obj})
	}
	add("alice", "name", rdf.NewString("Alice"))
	add("alice", "age", rdf.NewInt(30))
	add("alice", "knows", rdf.NewIRI("http://x/bob"))
	add("bob", "name", rdf.NewString("Bob"))
	add("carol", "knows", rdf.NewIRI("http://x/alice"))
	return s
})

// FuzzNormalizeQuery is the prepared-cache soundness fuzz target: for any
// input that parses, normalization must succeed, be idempotent, parse to
// the same algebra, compile to the same slot layout, and produce
// identical results to the original — otherwise two spellings of one
// query could collide on a cache key and serve each other's answers.
func FuzzNormalizeQuery(f *testing.F) {
	for _, group := range normVariantGroups {
		for _, q := range group {
			f.Add(q)
		}
	}
	f.Add(`PREFIX ex: <http://x/> SELECT * WHERE { ex:a ex:p ?v ; ex:q "s"@en, "5"^^xsd:integer }`)
	f.Add("SELECT ?s WHERE { ?s <http://x/age> ?a } # trailing comment")
	f.Add("select\t?x\nwhere { ?x a <http://x/Person> . FILTER(?x != \"q\\\"esc\") }")
	f.Fuzz(func(t *testing.T, in string) {
		norm, err := NormalizeQuery(in)
		if err != nil {
			// Lexing failed; the parser must reject the input too, so a
			// cache keyed on the normalized text loses nothing.
			if _, perr := Parse(in); perr == nil {
				t.Fatalf("NormalizeQuery rejected %q but Parse accepted it: %v", in, err)
			}
			return
		}
		again, err := NormalizeQuery(norm)
		if err != nil {
			t.Fatalf("normalized %q -> %q fails to re-normalize: %v", in, norm, err)
		}
		if again != norm {
			t.Fatalf("not idempotent: %q -> %q -> %q", in, norm, again)
		}
		// Prepare parses the text as sent and caches it under norm, so every
		// spelling of one key must parse to the same algebra, or fail.
		q, err := Parse(in)
		qn, nerr := Parse(norm)
		if (err == nil) != (nerr == nil) {
			t.Fatalf("Parse(%q) = %v but Parse of its normalized form %q = %v", in, err, norm, nerr)
		}
		if err != nil {
			return // lexes but does not parse; nothing to compare
		}
		if !reflect.DeepEqual(q, qn) {
			t.Fatalf("algebra differs between %q and %q:\n%#v\n%#v", in, norm, *q, *qn)
		}
		if !reflect.DeepEqual(Compile(q).layout, Compile(qn).layout) {
			t.Fatalf("slot layouts differ between %q and %q", in, norm)
		}
		st := fuzzStore()
		r1, err1 := evalStore(context.Background(), st, q, EvalOptions{})
		r2, err2 := evalStore(context.Background(), st, qn, EvalOptions{})
		if (err1 != nil) != (err2 != nil) {
			t.Fatalf("eval divergence on %q vs %q: %v vs %v", in, norm, err1, err2)
		}
		if err1 != nil {
			return
		}
		if q.Ask {
			if r1.AskResult() != r2.AskResult() {
				t.Fatalf("ask divergence on %q vs %q", in, norm)
			}
			return
		}
		if strings.Join(r1.Vars, ",") != strings.Join(r2.Vars, ",") {
			t.Fatalf("vars divergence on %q vs %q", in, norm)
		}
		c1, c2 := canonRows(r1.Rows), canonRows(r2.Rows)
		if strings.Join(c1, "\n") != strings.Join(c2, "\n") {
			t.Fatalf("row divergence on %q vs %q", in, norm)
		}
		t1, t2 := canonTriples(r1.Triples), canonTriples(r2.Triples)
		if strings.Join(t1, "\n") != strings.Join(t2, "\n") {
			t.Fatalf("construct divergence on %q vs %q", in, norm)
		}
	})
}
