package sparql

import (
	"context"
	"strings"
	"testing"

	"alex/internal/rdf"
)

func mustParse(t *testing.T, q string) *Query {
	t.Helper()
	parsed, err := Parse(q)
	if err != nil {
		t.Fatalf("Parse(%q): %v", q, err)
	}
	return parsed
}

func TestParseBasicSelect(t *testing.T) {
	q := mustParse(t, `SELECT ?s ?o WHERE { ?s <http://x/p> ?o . }`)
	if len(q.Vars) != 2 || q.Vars[0] != "s" || q.Vars[1] != "o" {
		t.Errorf("Vars = %v", q.Vars)
	}
	if len(q.Patterns) != 1 {
		t.Fatalf("Patterns = %d", len(q.Patterns))
	}
	bgp, ok := q.Patterns[0].(BGP)
	if !ok || len(bgp.Triples) != 1 {
		t.Fatalf("pattern 0 = %#v", q.Patterns[0])
	}
	tp := bgp.Triples[0]
	if !tp.S.IsVar() || tp.S.Var != "s" {
		t.Errorf("S = %v", tp.S)
	}
	if tp.P.IsVar() || tp.P.Term.Value != "http://x/p" {
		t.Errorf("P = %v", tp.P)
	}
}

func TestParseSelectStar(t *testing.T) {
	q := mustParse(t, `SELECT * WHERE { ?s ?p ?o }`)
	if len(q.Vars) != 0 {
		t.Errorf("Vars = %v, want empty (star)", q.Vars)
	}
	if got := q.AllVars(); len(got) != 3 {
		t.Errorf("AllVars = %v", got)
	}
}

func TestParseDistinctLimitOffset(t *testing.T) {
	q := mustParse(t, `SELECT DISTINCT ?s WHERE { ?s ?p ?o } LIMIT 10 OFFSET 5`)
	if !q.Distinct || q.Limit != 10 || q.Offset != 5 {
		t.Errorf("Distinct=%v Limit=%d Offset=%d", q.Distinct, q.Limit, q.Offset)
	}
}

func TestParsePrefixes(t *testing.T) {
	q := mustParse(t, `
		PREFIX dbp: <http://dbpedia.org/resource/>
		SELECT ?s WHERE { ?s owl:sameAs dbp:LeBron_James }`)
	bgp := q.Patterns[0].(BGP)
	if bgp.Triples[0].P.Term.Value != rdf.OWLSameAs {
		t.Errorf("owl: prefix not expanded: %v", bgp.Triples[0].P)
	}
	if bgp.Triples[0].O.Term.Value != "http://dbpedia.org/resource/LeBron_James" {
		t.Errorf("dbp: prefix not expanded: %v", bgp.Triples[0].O)
	}
}

func TestParseAKeyword(t *testing.T) {
	q := mustParse(t, `SELECT ?s WHERE { ?s a <http://x/Person> }`)
	bgp := q.Patterns[0].(BGP)
	if bgp.Triples[0].P.Term.Value != rdf.RDFType {
		t.Errorf("'a' not expanded to rdf:type: %v", bgp.Triples[0].P)
	}
}

func TestParseSemicolonComma(t *testing.T) {
	q := mustParse(t, `SELECT * WHERE { ?s <http://x/p> "a", "b" ; <http://x/q> "c" . }`)
	bgp := q.Patterns[0].(BGP)
	if len(bgp.Triples) != 3 {
		t.Fatalf("triples = %d, want 3", len(bgp.Triples))
	}
	for _, tp := range bgp.Triples[:2] {
		if tp.P.Term.Value != "http://x/p" {
			t.Errorf("comma expansion: P = %v", tp.P)
		}
	}
	if bgp.Triples[2].P.Term.Value != "http://x/q" {
		t.Errorf("semicolon expansion: P = %v", bgp.Triples[2].P)
	}
}

func TestParseLiterals(t *testing.T) {
	q := mustParse(t, `SELECT * WHERE {
		?s <http://x/p> "plain" .
		?s <http://x/q> "tagged"@en .
		?s <http://x/r> "5"^^xsd:integer .
		?s <http://x/t> 42 .
		?s <http://x/u> 2.5 .
	}`)
	bgp := q.Patterns[0].(BGP)
	want := []rdf.Term{
		rdf.NewString("plain"),
		rdf.NewLangString("tagged", "en"),
		rdf.NewTyped("5", rdf.XSDInteger),
		rdf.NewTyped("42", rdf.XSDInteger),
		rdf.NewTyped("2.5", rdf.XSDDouble),
	}
	for i, w := range want {
		if bgp.Triples[i].O.Term != w {
			t.Errorf("object %d = %v, want %v", i, bgp.Triples[i].O.Term, w)
		}
	}
}

func TestParseFilter(t *testing.T) {
	q := mustParse(t, `SELECT ?s WHERE { ?s <http://x/age> ?a . FILTER(?a >= 18 && ?a < 65) }`)
	if len(q.Patterns) != 2 {
		t.Fatalf("patterns = %d", len(q.Patterns))
	}
	f, ok := q.Patterns[1].(Filter)
	if !ok {
		t.Fatalf("pattern 1 = %#v", q.Patterns[1])
	}
	logic, ok := f.Expr.(LogicExpr)
	if !ok || logic.Op != "&&" {
		t.Fatalf("filter expr = %v", f.Expr)
	}
}

func TestParseFilterFunctions(t *testing.T) {
	q := mustParse(t, `SELECT ?s WHERE { ?s <http://x/name> ?n . FILTER(REGEX(?n, "^Le", "i") || CONTAINS(STR(?n), "James")) }`)
	f := q.Patterns[1].(Filter)
	if f.Expr.String() == "" {
		t.Error("empty expr string")
	}
}

func TestParseOptional(t *testing.T) {
	q := mustParse(t, `SELECT * WHERE { ?s <http://x/p> ?o . OPTIONAL { ?s <http://x/q> ?r } }`)
	if len(q.Patterns) != 2 {
		t.Fatalf("patterns = %d", len(q.Patterns))
	}
	if _, ok := q.Patterns[1].(Optional); !ok {
		t.Fatalf("pattern 1 = %#v", q.Patterns[1])
	}
}

func TestParseUnion(t *testing.T) {
	q := mustParse(t, `SELECT * WHERE { { ?s <http://x/p> ?o } UNION { ?s <http://x/q> ?o } }`)
	u, ok := q.Patterns[0].(Union)
	if !ok {
		t.Fatalf("pattern 0 = %#v", q.Patterns[0])
	}
	if len(u.Left) != 1 || len(u.Right) != 1 {
		t.Errorf("union arms = %d, %d", len(u.Left), len(u.Right))
	}
}

func TestParseAsk(t *testing.T) {
	q := mustParse(t, `ASK { ?s <http://x/p> "v" }`)
	if !q.Ask {
		t.Error("Ask flag not set")
	}
	q = mustParse(t, `ASK WHERE { ?s ?p ?o }`)
	if !q.Ask {
		t.Error("ASK WHERE not parsed")
	}
	if _, err := Parse(`ASK`); err == nil {
		t.Error("bare ASK parsed")
	}
}

func TestParseValuesSingleVar(t *testing.T) {
	q := mustParse(t, `SELECT ?s WHERE {
		VALUES ?s { <http://x/a> <http://x/b> }
		?s <http://x/p> ?o .
	}`)
	v, ok := q.Patterns[0].(Values)
	if !ok {
		t.Fatalf("pattern 0 = %#v", q.Patterns[0])
	}
	if len(v.Vars) != 1 || v.Vars[0] != "s" || len(v.Rows) != 2 {
		t.Errorf("Values = %+v", v)
	}
}

func TestParseValuesMultiVar(t *testing.T) {
	q := mustParse(t, `SELECT * WHERE {
		VALUES (?x ?y) { (<http://x/a> "1") (UNDEF "2") }
	}`)
	v := q.Patterns[0].(Values)
	if len(v.Vars) != 2 || len(v.Rows) != 2 {
		t.Fatalf("Values = %+v", v)
	}
	if !v.Rows[1][0].IsZero() {
		t.Error("UNDEF not parsed as zero term")
	}
	if v.Rows[1][1].Value != "2" {
		t.Errorf("row term = %v", v.Rows[1][1])
	}
}

func TestParseValuesErrors(t *testing.T) {
	bad := []string{
		`SELECT * WHERE { VALUES { "x" } }`,
		`SELECT * WHERE { VALUES () { ("x") } }`,
		`SELECT * WHERE { VALUES (?x ?y) { ("1") } }`,
		`SELECT * WHERE { VALUES ?x { ?y } }`,
	}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) succeeded", in)
		}
	}
}

func TestParseOrderBy(t *testing.T) {
	q := mustParse(t, `SELECT ?s WHERE { ?s ?p ?o } ORDER BY DESC(?s) ?o LIMIT 3`)
	if len(q.OrderBy) != 2 {
		t.Fatalf("OrderBy = %v", q.OrderBy)
	}
	if !q.OrderBy[0].Desc || q.OrderBy[0].Var != "s" {
		t.Errorf("key 0 = %+v", q.OrderBy[0])
	}
	if q.OrderBy[1].Desc || q.OrderBy[1].Var != "o" {
		t.Errorf("key 1 = %+v", q.OrderBy[1])
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`SELECT`,
		`SELECT ?s`,
		`SELECT ?s WHERE`,
		`SELECT ?s WHERE {`,
		`SELECT ?s WHERE { ?s ?p }`,
		`SELECT ?s WHERE { ?s ?p ?o } trailing`,
		`SELECT ?s WHERE { ?s unknown:x ?o }`,
		`SELECT ?s WHERE { ?s ?p ?o } LIMIT abc`,
		`SELECT ?s WHERE { ?s ?p ?o . FILTER( }`,
		`SELECT ?s WHERE { ?s ?p "unterminated }`,
	}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", in)
		} else if _, ok := err.(*SyntaxError); !ok {
			t.Errorf("Parse(%q) error type %T, want *SyntaxError", in, err)
		}
	}
}

func TestSyntaxErrorMessage(t *testing.T) {
	_, err := Parse("BOGUS")
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("err = %T", err)
	}
	if !strings.Contains(se.Error(), "offset") {
		t.Errorf("Error() = %q", se.Error())
	}
}

func TestTriplePatternHelpers(t *testing.T) {
	tp := TriplePattern{VarNode("s"), TermNode(rdf.NewIRI("http://x/p")), VarNode("s")}
	vars := tp.Vars()
	if len(vars) != 1 || vars[0] != "s" {
		t.Errorf("Vars = %v", vars)
	}
	if tp.String() == "" {
		t.Error("empty String")
	}
	if VarNode("x").String() != "?x" {
		t.Error("VarNode String")
	}
}

// TestPrefixedNameBeforeDot: a statement's '.' right after a prefixed name
// ends the triple pattern; it is not part of the local name.
func TestPrefixedNameBeforeDot(t *testing.T) {
	st := peopleStore(t)
	for _, q := range []string{
		`PREFIX ex: <http://x/> SELECT ?s WHERE { ?s ex:knows ex:bob. }`,
		`PREFIX ex: <http://x/> SELECT ?s WHERE { ?s ex:knows ex:bob . }`,
	} {
		res, err := evalStore(context.Background(), st, mustParse(t, q), EvalOptions{})
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if len(res.Rows) != 1 {
			t.Errorf("%s: %d rows, want 1", q, len(res.Rows))
		}
	}
}

// TestStringSpellings: SPARQL reads every string form and escape of the
// shared term grammar, and rejects a raw line break in a short string.
func TestStringSpellings(t *testing.T) {
	for in, want := range map[string]string{
		`"O\'Brien"`:         "O'Brien",
		`"a\bb"`:             "a\bb",
		`"a\ff"`:             "a\ff",
		`"\u00e9\U0001F600"`: "é\U0001F600",
		`'single'`:           "single",
		`'it\'s "q"'`:        `it's "q"`,
		`"""say "hi"."""`:    `say "hi".`,
		"'''two\nlines'''":   "two\nlines",
	} {
		q, err := Parse(`SELECT ?v WHERE { VALUES ?v { ` + in + ` } }`)
		if err != nil {
			t.Errorf("%s: %v", in, err)
			continue
		}
		if got := q.Patterns[0].(Values).Rows[0][0]; got != rdf.NewString(want) {
			t.Errorf("%s = %v, want %q", in, got, want)
		}
	}
	for _, in := range []string{"\"a\nb\"", "'a\rb'"} {
		if _, err := Parse(`SELECT ?v WHERE { VALUES ?v { ` + in + ` } }`); err == nil {
			t.Errorf("%q accepted, want a raw line break rejected", in)
		}
	}
}

// TestLangTagSpelling: a language tag is letters, then '-'-joined letter
// and digit subtags.
func TestLangTagSpelling(t *testing.T) {
	for _, in := range []string{`"a"@en--`, `"a"@en_US`, `"a"@en-`, `"a"@1en`} {
		if _, err := Parse(`SELECT ?v WHERE { VALUES ?v { ` + in + ` } }`); err == nil {
			t.Errorf("%s accepted", in)
		}
	}
	q := mustParse(t, `SELECT ?v WHERE { VALUES ?v { "a"@en-US-x1 } }`)
	if got := q.Patterns[0].(Values).Rows[0][0]; got != rdf.NewLangString("a", "en-US-x1") {
		t.Errorf("got %v", got)
	}
}
