package sparql

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"alex/internal/rdf"
	"alex/internal/store"
)

// peopleStore loads testdata/people.nt, the fixture internal/fed's
// one-source-federation test shares.
func peopleStore(t testing.TB) *store.Store {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "people.nt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s := store.New("people", rdf.NewDict())
	if _, err := store.LoadNTriples(s, f, store.LoadOptions{}); err != nil {
		t.Fatal(err)
	}
	return s
}

// evalStore evaluates a parsed query over one store through the one entry
// point and decodes the rows.
func evalStore(ctx context.Context, st *store.Store, q *Query, opts EvalOptions) (*Result, error) {
	res, err := Compile(q).Eval(ctx, StoreSolver(st.Now()), opts)
	if err != nil {
		return nil, err
	}
	return res.Materialize(), nil
}

// storeProg binds a layout to one store the way (*Prepared).Eval does, for
// tests that look inside an evaluation.
func storeProg(st *store.Store, lay *SlotLayout) *slotProg {
	return &slotProg{solver: StoreSolver(st.Now()), ids: newIDSpace(st.Dict()), lay: lay}
}

// evalExpr evaluates e under b through the engine's expression evaluator —
// b's variables laid out as one slot row over an empty store — and checks
// that the reference model's Eval method agrees on value and error-ness.
func evalExpr(t *testing.T, e Expr, b Binding) (rdf.Term, error) {
	t.Helper()
	lay := &SlotLayout{slots: map[string]int{}}
	for v := range b {
		lay.slots[v] = len(lay.vars)
		lay.vars = append(lay.vars, v)
	}
	lay.compileRegexes(e)
	p := storeProg(store.New("expr", rdf.NewDict()), lay)
	row := make([]rdf.TermID, len(lay.vars))
	for i, v := range lay.vars {
		row[i] = p.ids.ID(b[v])
	}
	got, err := p.evalExprRow(e, row)
	want, wantErr := e.(refExpr).Eval(b)
	if (err != nil) != (wantErr != nil) || got != want {
		t.Errorf("%s: engine gives (%v, %v), reference model (%v, %v)", e, got, err, want, wantErr)
	}
	return got, err
}

func exec(t *testing.T, s *store.Store, q string) *Result {
	t.Helper()
	res, err := Execute(s, q)
	if err != nil {
		t.Fatalf("Execute(%q): %v", q, err)
	}
	return res
}

func TestEvalSingleTriple(t *testing.T) {
	s := peopleStore(t)
	res := exec(t, s, `SELECT ?n WHERE { <http://x/alice> <http://x/name> ?n }`)
	if len(res.Rows) != 1 || res.Rows[0]["n"].Value != "Alice" {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestEvalJoin(t *testing.T) {
	s := peopleStore(t)
	// Who does alice know, and what is their name?
	res := exec(t, s, `SELECT ?who ?n WHERE {
		<http://x/alice> <http://x/knows> ?who .
		?who <http://x/name> ?n .
	}`)
	if len(res.Rows) != 1 || res.Rows[0]["n"].Value != "Bob" {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestEvalFilterNumeric(t *testing.T) {
	s := peopleStore(t)
	res := exec(t, s, `SELECT ?s WHERE { ?s <http://x/age> ?a . FILTER(?a >= 18 && ?a < 65) }`)
	if len(res.Rows) != 1 || res.Rows[0]["s"].Value != "http://x/alice" {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestEvalFilterRegexAndContains(t *testing.T) {
	s := peopleStore(t)
	res := exec(t, s, `SELECT ?s WHERE { ?s <http://x/name> ?n . FILTER(REGEX(?n, "^[AC]")) }`)
	if len(res.Rows) != 2 {
		t.Errorf("regex rows = %v", res.Rows)
	}
	res = exec(t, s, `SELECT ?s WHERE { ?s <http://x/name> ?n . FILTER(CONTAINS(?n, "aro")) }`)
	if len(res.Rows) != 1 || res.Rows[0]["s"].Value != "http://x/carol" {
		t.Errorf("contains rows = %v", res.Rows)
	}
}

func TestEvalFilterNegationAndEquality(t *testing.T) {
	s := peopleStore(t)
	res := exec(t, s, `SELECT ?s WHERE { ?s <http://x/name> ?n . FILTER(!(?n = "Bob")) }`)
	if len(res.Rows) != 2 {
		t.Errorf("rows = %v", res.Rows)
	}
	res = exec(t, s, `SELECT ?s WHERE { ?s <http://x/name> ?n . FILTER(?n != "Bob") }`)
	if len(res.Rows) != 2 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestEvalOptional(t *testing.T) {
	s := peopleStore(t)
	res := exec(t, s, `SELECT ?s ?who WHERE {
		?s <http://x/name> ?n .
		OPTIONAL { ?s <http://x/knows> ?who }
	}`)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
	withKnows := 0
	for _, r := range res.Rows {
		if _, ok := r["who"]; ok {
			withKnows++
		}
	}
	if withKnows != 2 {
		t.Errorf("rows with ?who = %d, want 2", withKnows)
	}
}

func TestEvalBoundFilter(t *testing.T) {
	s := peopleStore(t)
	res := exec(t, s, `SELECT ?s WHERE {
		?s <http://x/name> ?n .
		OPTIONAL { ?s <http://x/knows> ?who }
		FILTER(!BOUND(?who))
	}`)
	if len(res.Rows) != 1 || res.Rows[0]["s"].Value != "http://x/bob" {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestEvalUnion(t *testing.T) {
	s := peopleStore(t)
	res := exec(t, s, `SELECT ?s WHERE {
		{ ?s <http://x/age> "30"^^xsd:integer } UNION { ?s <http://x/age> "65"^^xsd:integer }
	}`)
	if len(res.Rows) != 2 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestEvalDistinct(t *testing.T) {
	s := peopleStore(t)
	res := exec(t, s, `SELECT DISTINCT ?p WHERE { ?s ?p ?o }`)
	seen := map[string]bool{}
	for _, r := range res.Rows {
		v := r["p"].Value
		if seen[v] {
			t.Errorf("duplicate predicate %s", v)
		}
		seen[v] = true
	}
}

func TestEvalOrderByLimitOffset(t *testing.T) {
	s := peopleStore(t)
	res := exec(t, s, `SELECT ?s ?a WHERE { ?s <http://x/age> ?a } ORDER BY ?a`)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	ages := []string{"17", "30", "65"}
	for i, want := range ages {
		if res.Rows[i]["a"].Value != want {
			t.Errorf("row %d age = %s, want %s", i, res.Rows[i]["a"].Value, want)
		}
	}
	res = exec(t, s, `SELECT ?s ?a WHERE { ?s <http://x/age> ?a } ORDER BY DESC(?a) LIMIT 1`)
	if len(res.Rows) != 1 || res.Rows[0]["a"].Value != "65" {
		t.Errorf("desc limit rows = %v", res.Rows)
	}
	res = exec(t, s, `SELECT ?s ?a WHERE { ?s <http://x/age> ?a } ORDER BY ?a OFFSET 2`)
	if len(res.Rows) != 1 || res.Rows[0]["a"].Value != "65" {
		t.Errorf("offset rows = %v", res.Rows)
	}
	res = exec(t, s, `SELECT ?s WHERE { ?s <http://x/age> ?a } OFFSET 99`)
	if len(res.Rows) != 0 {
		t.Errorf("offset beyond end rows = %v", res.Rows)
	}
}

func TestEvalTypePattern(t *testing.T) {
	s := peopleStore(t)
	res := exec(t, s, `SELECT ?s WHERE { ?s a <http://x/Person> }`)
	if len(res.Rows) != 2 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestEvalRepeatedVariable(t *testing.T) {
	d := rdf.NewDict()
	s := store.New("loop", d)
	s.Add(rdf.Triple{S: rdf.NewIRI("http://x/a"), P: rdf.NewIRI("http://x/self"), O: rdf.NewIRI("http://x/a")})
	s.Add(rdf.Triple{S: rdf.NewIRI("http://x/a"), P: rdf.NewIRI("http://x/self"), O: rdf.NewIRI("http://x/b")})
	res := exec(t, s, `SELECT ?x WHERE { ?x <http://x/self> ?x }`)
	if len(res.Rows) != 1 || res.Rows[0]["x"].Value != "http://x/a" {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestEvalEmptyResult(t *testing.T) {
	s := peopleStore(t)
	res := exec(t, s, `SELECT ?s WHERE { ?s <http://x/nonexistent> ?o }`)
	if len(res.Rows) != 0 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestEvalSelectStarProjection(t *testing.T) {
	s := peopleStore(t)
	res := exec(t, s, `SELECT * WHERE { ?s <http://x/age> ?a }`)
	if len(res.Vars) != 2 {
		t.Errorf("Vars = %v", res.Vars)
	}
}

func TestEvalFilterErrorRejectsRow(t *testing.T) {
	s := peopleStore(t)
	// ?missing is never bound; SPARQL error-as-false must drop all rows.
	res := exec(t, s, `SELECT ?s WHERE { ?s <http://x/age> ?a . FILTER(?missing > 5) }`)
	if len(res.Rows) != 0 {
		t.Errorf("rows = %v, want none", res.Rows)
	}
}

func TestEBV(t *testing.T) {
	cases := []struct {
		term rdf.Term
		want bool
		err  bool
	}{
		{rdf.NewTyped("true", rdf.XSDBoolean), true, false},
		{rdf.NewTyped("false", rdf.XSDBoolean), false, false},
		{rdf.NewString(""), false, false},
		{rdf.NewString("x"), true, false},
		{rdf.NewInt(0), false, false},
		{rdf.NewInt(3), true, false},
		{rdf.NewIRI("http://x"), false, true},
	}
	for _, c := range cases {
		got, err := EBV(c.term)
		if (err != nil) != c.err {
			t.Errorf("EBV(%v) err = %v, want err=%v", c.term, err, c.err)
			continue
		}
		if err == nil && got != c.want {
			t.Errorf("EBV(%v) = %v, want %v", c.term, got, c.want)
		}
	}
}

func TestLogicExprErrorTolerance(t *testing.T) {
	b := Binding{"x": rdf.NewInt(1)}
	// true || error  => true
	e := LogicExpr{Op: "||",
		Left:  CmpExpr{Op: "=", Left: VarExpr{"x"}, Right: ConstExpr{rdf.NewInt(1)}},
		Right: VarExpr{"unbound"},
	}
	v, err := evalExpr(t, e, b)
	if err != nil {
		t.Fatalf("true||error: %v", err)
	}
	if got, _ := EBV(v); !got {
		t.Error("true||error should be true")
	}
	// false && error => false
	e2 := LogicExpr{Op: "&&",
		Left:  CmpExpr{Op: "=", Left: VarExpr{"x"}, Right: ConstExpr{rdf.NewInt(2)}},
		Right: VarExpr{"unbound"},
	}
	v2, err := evalExpr(t, e2, b)
	if err != nil {
		t.Fatalf("false&&error: %v", err)
	}
	if got, _ := EBV(v2); got {
		t.Error("false&&error should be false")
	}
	// error && true => error
	e3 := LogicExpr{Op: "&&", Left: VarExpr{"unbound"},
		Right: CmpExpr{Op: "=", Left: VarExpr{"x"}, Right: ConstExpr{rdf.NewInt(1)}}}
	if _, err := evalExpr(t, e3, b); err == nil {
		t.Error("error&&true should error")
	}
}

func TestCallExprErrors(t *testing.T) {
	b := Binding{"n": rdf.NewString("abc")}
	bad := []CallExpr{
		{Name: "REGEX", Args: []Expr{VarExpr{"n"}}},
		{Name: "REGEX", Args: []Expr{VarExpr{"n"}, ConstExpr{rdf.NewString("(")}}},
		{Name: "NOSUCHFUNC", Args: nil},
		{Name: "BOUND", Args: []Expr{ConstExpr{rdf.NewString("x")}}},
		{Name: "STR", Args: nil},
	}
	for _, e := range bad {
		if _, err := evalExpr(t, e, b); err == nil {
			t.Errorf("%s: expected error", e)
		}
	}
}

func TestCallExprFunctions(t *testing.T) {
	b := Binding{
		"iri": rdf.NewIRI("http://x/a"),
		"lit": rdf.NewLangString("hello", "en"),
	}
	check := func(e CallExpr, want bool) {
		t.Helper()
		v, err := evalExpr(t, e, b)
		if err != nil {
			t.Fatalf("%s: %v", e, err)
		}
		got, _ := EBV(v)
		if got != want {
			t.Errorf("%s = %v, want %v", e, got, want)
		}
	}
	check(CallExpr{Name: "ISIRI", Args: []Expr{VarExpr{"iri"}}}, true)
	check(CallExpr{Name: "ISIRI", Args: []Expr{VarExpr{"lit"}}}, false)
	check(CallExpr{Name: "ISLITERAL", Args: []Expr{VarExpr{"lit"}}}, true)
	check(CallExpr{Name: "STRSTARTS", Args: []Expr{VarExpr{"lit"}, ConstExpr{rdf.NewString("he")}}}, true)

	lang, err := evalExpr(t, CallExpr{Name: "LANG", Args: []Expr{VarExpr{"lit"}}}, b)
	if err != nil || lang.Value != "en" {
		t.Errorf("LANG = %v, %v", lang, err)
	}
}

func TestRegexCaseInsensitive(t *testing.T) {
	b := Binding{"n": rdf.NewString("LeBron")}
	e := CallExpr{Name: "REGEX", Args: []Expr{
		VarExpr{"n"}, ConstExpr{rdf.NewString("^lebron$")}, ConstExpr{rdf.NewString("i")},
	}}
	v, err := evalExpr(t, e, b)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := EBV(v); !got {
		t.Error("case-insensitive regex should match")
	}
}

func TestEvalAsk(t *testing.T) {
	s := peopleStore(t)
	res := exec(t, s, `ASK { <http://x/alice> <http://x/knows> <http://x/bob> }`)
	if !res.AskResult() {
		t.Error("ASK true case failed")
	}
	res = exec(t, s, `ASK { <http://x/bob> <http://x/knows> ?anyone }`)
	if res.AskResult() {
		t.Error("ASK false case succeeded")
	}
}

func TestEvalValuesRestricts(t *testing.T) {
	s := peopleStore(t)
	res := exec(t, s, `SELECT ?s ?a WHERE {
		VALUES ?s { <http://x/alice> <http://x/carol> }
		?s <http://x/age> ?a .
	} ORDER BY ?a`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0]["a"].Value != "30" || res.Rows[1]["a"].Value != "65" {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestEvalValuesAfterBinding(t *testing.T) {
	s := peopleStore(t)
	// VALUES after the triple pattern filters already-bound solutions.
	res := exec(t, s, `SELECT ?s WHERE {
		?s <http://x/age> ?a .
		VALUES ?s { <http://x/bob> }
	}`)
	if len(res.Rows) != 1 || res.Rows[0]["s"].Value != "http://x/bob" {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestEvalValuesUndef(t *testing.T) {
	s := peopleStore(t)
	res := exec(t, s, `SELECT ?s ?n WHERE {
		VALUES (?s ?n) { (<http://x/alice> UNDEF) (UNDEF "Bob") }
		?s <http://x/name> ?n .
	}`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestEvalFilterExists(t *testing.T) {
	s := peopleStore(t)
	// People who know someone.
	res := exec(t, s, `SELECT ?s WHERE {
		?s <http://x/name> ?n .
		FILTER EXISTS { ?s <http://x/knows> ?anyone }
	}`)
	if len(res.Rows) != 2 {
		t.Fatalf("EXISTS rows = %v", res.Rows)
	}
	// People who know no one.
	res = exec(t, s, `SELECT ?s WHERE {
		?s <http://x/name> ?n .
		FILTER NOT EXISTS { ?s <http://x/knows> ?anyone }
	}`)
	if len(res.Rows) != 1 || res.Rows[0]["s"].Value != "http://x/bob" {
		t.Errorf("NOT EXISTS rows = %v", res.Rows)
	}
}

func TestEvalNotExistsWithConstant(t *testing.T) {
	s := peopleStore(t)
	res := exec(t, s, `SELECT ?s WHERE {
		?s a <http://x/Person> .
		FILTER NOT EXISTS { ?s <http://x/knows> <http://x/bob> }
	}`)
	if len(res.Rows) != 1 || res.Rows[0]["s"].Value != "http://x/bob" {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestParseExistsErrors(t *testing.T) {
	bad := []string{
		`SELECT ?s WHERE { ?s ?p ?o . FILTER NOT { ?s ?p ?o } }`,
		`SELECT ?s WHERE { ?s ?p ?o . FILTER EXISTS ?x }`,
	}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) succeeded", in)
		}
	}
}

func TestEvalConstruct(t *testing.T) {
	s := peopleStore(t)
	res := exec(t, s, `CONSTRUCT { ?s <http://out/hasName> ?n } WHERE { ?s <http://x/name> ?n }`)
	if len(res.Triples) != 3 {
		t.Fatalf("triples = %v", res.Triples)
	}
	for _, tr := range res.Triples {
		if tr.P.Value != "http://out/hasName" {
			t.Errorf("predicate = %v", tr.P)
		}
		if !tr.S.IsIRI() || !tr.O.IsLiteral() {
			t.Errorf("malformed triple %v", tr)
		}
	}
	if len(res.Rows) != 0 || len(res.Vars) != 0 {
		t.Error("CONSTRUCT result has SELECT fields")
	}
}

func TestEvalConstructMultiTemplate(t *testing.T) {
	s := peopleStore(t)
	res := exec(t, s, `CONSTRUCT {
		?s a <http://out/Named> .
		?s <http://out/label> ?n .
	} WHERE { ?s <http://x/name> ?n } LIMIT 2`)
	if len(res.Triples) != 4 {
		t.Fatalf("triples = %v", res.Triples)
	}
}

func TestEvalConstructSkipsIllFormed(t *testing.T) {
	s := peopleStore(t)
	// ?n is a literal: using it as subject must be dropped, not emitted.
	res := exec(t, s, `CONSTRUCT { ?n <http://out/of> ?s } WHERE { ?s <http://x/name> ?n }`)
	if len(res.Triples) != 0 {
		t.Errorf("literal-subject triples emitted: %v", res.Triples)
	}
	// Unbound OPTIONAL variable skips just that instantiation.
	res = exec(t, s, `CONSTRUCT { ?s <http://out/knows> ?w } WHERE {
		?s <http://x/name> ?n .
		OPTIONAL { ?s <http://x/knows> ?w }
	}`)
	if len(res.Triples) != 2 {
		t.Errorf("optional construct = %v", res.Triples)
	}
}

func TestEvalConstructDeduplicates(t *testing.T) {
	s := peopleStore(t)
	// Every person emits the same constant triple once.
	res := exec(t, s, `CONSTRUCT { <http://out/g> <http://out/size> "big" } WHERE { ?s <http://x/name> ?n }`)
	if len(res.Triples) != 1 {
		t.Errorf("deduplication failed: %v", res.Triples)
	}
}

func TestParseConstructErrors(t *testing.T) {
	bad := []string{
		`CONSTRUCT { } WHERE { ?s ?p ?o }`,
		`CONSTRUCT { ?s ?p ?o } { ?s ?p ?o }`,
		`CONSTRUCT { ?s <http://x/p>+ ?o } WHERE { ?s ?p ?o }`,
		`CONSTRUCT { ?s ?p ?o `,
	}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) succeeded", in)
		}
	}
}

func TestEvalBindArithmetic(t *testing.T) {
	s := peopleStore(t)
	res := exec(t, s, `SELECT ?s ?decade WHERE {
		?s <http://x/age> ?a .
		BIND(?a / 10 AS ?decade)
		FILTER(?decade >= 3)
	} ORDER BY ?decade`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0]["decade"].Value != "3" || res.Rows[1]["decade"].Value != "6.5" {
		t.Errorf("decades = %v", res.Rows)
	}
}

func TestEvalArithmeticPrecedence(t *testing.T) {
	s := peopleStore(t)
	// 2 + 3 * 10 = 32 (multiplication binds tighter).
	res := exec(t, s, `SELECT ?v WHERE {
		<http://x/alice> <http://x/age> ?a .
		BIND(2 + ?a / 10 * 10 AS ?v)
	}`)
	if len(res.Rows) != 1 || res.Rows[0]["v"].Value != "32" {
		t.Errorf("rows = %v", res.Rows)
	}
	// Subtraction and negative results.
	res = exec(t, s, `SELECT ?v WHERE {
		<http://x/bob> <http://x/age> ?a .
		BIND(?a - 20 AS ?v)
	}`)
	if res.Rows[0]["v"].Value != "-3" {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestEvalBindErrorLeavesUnbound(t *testing.T) {
	s := peopleStore(t)
	// Division by zero: variable stays unbound, row survives.
	res := exec(t, s, `SELECT ?s ?v WHERE {
		?s <http://x/age> ?a .
		BIND(?a / 0 AS ?v)
	}`)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
	for _, r := range res.Rows {
		if _, bound := r["v"]; bound {
			t.Errorf("error-bound variable present: %v", r)
		}
	}
	// Non-numeric operand likewise.
	res = exec(t, s, `SELECT ?v WHERE {
		?s <http://x/name> ?n .
		BIND(?n * 2 AS ?v)
	}`)
	for _, r := range res.Rows {
		if _, bound := r["v"]; bound {
			t.Errorf("string arithmetic bound: %v", r)
		}
	}
}

func TestEvalFilterArithmetic(t *testing.T) {
	s := peopleStore(t)
	res := exec(t, s, `SELECT ?s WHERE {
		?s <http://x/age> ?a . FILTER(?a * 2 > 100)
	}`)
	if len(res.Rows) != 1 || res.Rows[0]["s"].Value != "http://x/carol" {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestParseBindErrors(t *testing.T) {
	bad := []string{
		`SELECT ?v WHERE { BIND(1 + AS ?v) }`,
		`SELECT ?v WHERE { BIND(1 + 2 ?v) }`,
		`SELECT ?v WHERE { BIND(1 + 2 AS "x") }`,
		`SELECT ?v WHERE { BIND 1 AS ?v }`,
	}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) succeeded", in)
		}
	}
}
