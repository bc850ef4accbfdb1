package sparql

import (
	"errors"
	"path/filepath"
	"testing"
	"time"
)

func FuzzParse(f *testing.F) {
	seeds := []string{
		`SELECT ?s WHERE { ?s ?p ?o }`,
		`SELECT DISTINCT ?s ?o WHERE { ?s <http://x/p> ?o . FILTER(?o > 5 && REGEX(?o, "x")) } ORDER BY DESC(?s) LIMIT 3 OFFSET 1`,
		`ASK { ?s a <http://x/T> }`,
		`PREFIX ex: <http://x/> SELECT * WHERE { ex:a ex:p ?v ; ex:q "s"@en, "5"^^xsd:integer }`,
		`SELECT ?g (COUNT(*) AS ?n) (AVG(?v) AS ?m) WHERE { ?s ?p ?v } GROUP BY ?g`,
		`SELECT * WHERE { { ?a ?b ?c } UNION { ?d ?e ?f } OPTIONAL { ?a ?p ?q } VALUES ?a { <http://x> UNDEF } FILTER NOT EXISTS { ?a ?x ?y } }`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		// The parser must never panic on arbitrary input.
		_, _ = Parse(in)
	})
}

// FuzzTokenize drives the lexer directly: on any input it must terminate,
// never panic, only advance, and end the token stream at its first error. Token text must come from the input and
// positions must be in-bounds, so error offsets in SyntaxError are usable.
func FuzzTokenize(f *testing.F) {
	seeds := []string{
		`SELECT ?s WHERE { ?s ?p ?o }`,
		`?x <http://iri/with#frag> "str\"esc" 'single' 12.5 .`,
		`"lang"@en-US "typed"^^xsd:int ^^ @`,
		`# comment to end
a ; , * ( ) { } <`,
		`prefix:local ?v1 !  <= >= != && || "unterminated`,
		"\"é\U0001F600\" ?ümlaut",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		l := &lexer{in: in}
		prev := -1
		for steps := 0; ; steps++ {
			if steps > len(in)+1 {
				t.Fatalf("lexer failed to terminate on %q", in)
			}
			tok := l.next()
			if tok.kind == tokEOF {
				if l.err == nil {
					return
				}
				var se *SyntaxError
				if !errors.As(l.err, &se) {
					t.Fatalf("non-SyntaxError from lexer: %v", l.err)
				}
				if se.Pos < 0 || se.Pos > len(in) {
					t.Fatalf("error offset %d outside input of length %d", se.Pos, len(in))
				}
				if l.next().kind != tokEOF {
					t.Fatalf("lexer produced a token after its error on %q", in)
				}
				return
			}
			if tok.pos <= prev {
				t.Fatalf("lexer did not advance: token %v at pos %d after pos %d", tok, tok.pos, prev)
			}
			prev = tok.pos
			if tok.pos < 0 || tok.pos > len(in) {
				t.Fatalf("token position %d outside input of length %d", tok.pos, len(in))
			}
		}
	})
}

// FuzzEvalEquivalence is the equivalence harness with the fuzzer writing
// the corpus: any input that parses runs through the engine's one entry
// point, planner on and off, and through the reference model on people.nt,
// and the two must agree on error-ness, Vars, the row multiset, the row
// sequence under ORDER BY and the constructed graph. Each side runs under
// a short deadline of its own so that a fuzzed cross product ends instead
// of hanging; an input on which a deadline fires is not compared.
func FuzzEvalEquivalence(f *testing.F) {
	st := peopleStore(f)
	for _, query := range loadLines(f, filepath.Join("testdata", "equiv_corpus.rq")) {
		f.Add(query)
	}
	f.Fuzz(func(t *testing.T, in string) {
		q, err := Parse(in)
		if err != nil {
			return
		}
		const limit = 50 * time.Millisecond
		if checkEquivalence(t, st, in, q, EvalOptions{}, "planned", limit) {
			checkEquivalence(t, st, in, q, EvalOptions{DisablePlan: true}, "unplanned", limit)
		}
	})
}
