package rdf

import (
	"strings"
	"testing"
)

func parseTurtle(t *testing.T, in string) []Triple {
	t.Helper()
	ts, err := ParseTurtle(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ParseTurtle: %v\ninput:\n%s", err, in)
	}
	return ts
}

func TestTurtleBasicStatement(t *testing.T) {
	ts := parseTurtle(t, `<http://x/s> <http://x/p> <http://x/o> .`)
	if len(ts) != 1 {
		t.Fatalf("triples = %d", len(ts))
	}
	want := Triple{NewIRI("http://x/s"), NewIRI("http://x/p"), NewIRI("http://x/o")}
	if ts[0] != want {
		t.Errorf("got %v, want %v", ts[0], want)
	}
}

func TestTurtlePrefixes(t *testing.T) {
	in := `@prefix dbo: <http://dbpedia.org/ontology/> .
@prefix : <http://example.org/> .
:lebron dbo:team :heat .
`
	ts := parseTurtle(t, in)
	if len(ts) != 1 {
		t.Fatalf("triples = %d", len(ts))
	}
	if ts[0].S.Value != "http://example.org/lebron" {
		t.Errorf("S = %v", ts[0].S)
	}
	if ts[0].P.Value != "http://dbpedia.org/ontology/team" {
		t.Errorf("P = %v", ts[0].P)
	}
}

func TestTurtleSparqlStylePrefix(t *testing.T) {
	in := `PREFIX ex: <http://example.org/>
ex:a ex:p ex:b .
`
	ts := parseTurtle(t, in)
	if len(ts) != 1 || ts[0].S.Value != "http://example.org/a" {
		t.Fatalf("ts = %v", ts)
	}
}

func TestTurtleBase(t *testing.T) {
	in := `@base <http://example.org/> .
<a> <p> <b> .
`
	ts := parseTurtle(t, in)
	if ts[0].S.Value != "http://example.org/a" {
		t.Errorf("base not applied: %v", ts[0].S)
	}
	if ts[0].O.Value != "http://example.org/b" {
		t.Errorf("base not applied to object: %v", ts[0].O)
	}
}

func TestTurtlePredicateObjectLists(t *testing.T) {
	in := `@prefix : <http://x/> .
:s :p "a", "b" ;
   :q "c" ;
   a :Thing .
`
	ts := parseTurtle(t, in)
	if len(ts) != 4 {
		t.Fatalf("triples = %d, want 4: %v", len(ts), ts)
	}
	if ts[0].O.Value != "a" || ts[1].O.Value != "b" {
		t.Errorf("object list wrong: %v %v", ts[0].O, ts[1].O)
	}
	if ts[3].P.Value != RDFType {
		t.Errorf("'a' keyword: %v", ts[3].P)
	}
}

func TestTurtleLiterals(t *testing.T) {
	in := `@prefix : <http://x/> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
:s :str "plain" .
:s :lang "hello"@en-GB .
:s :typed "5"^^xsd:integer .
:s :typedIRI "2.5"^^<http://www.w3.org/2001/XMLSchema#double> .
:s :int 42 .
:s :neg -7 .
:s :dec 2.75 .
:s :yes true .
:s :no false .
:s :single 'quoted' .
`
	ts := parseTurtle(t, in)
	want := []Term{
		NewString("plain"),
		NewLangString("hello", "en-GB"),
		NewTyped("5", XSDInteger),
		NewTyped("2.5", XSDDouble),
		NewTyped("42", XSDInteger),
		NewTyped("-7", XSDInteger),
		NewTyped("2.75", XSDDouble),
		NewTyped("true", XSDBoolean),
		NewTyped("false", XSDBoolean),
		NewString("quoted"),
	}
	if len(ts) != len(want) {
		t.Fatalf("triples = %d, want %d", len(ts), len(want))
	}
	for i, w := range want {
		if ts[i].O != w {
			t.Errorf("object %d = %v, want %v", i, ts[i].O, w)
		}
	}
}

func TestTurtleLongString(t *testing.T) {
	in := `@prefix : <http://x/> .
:s :p """line one
line "two" here""" .
`
	ts := parseTurtle(t, in)
	if !strings.Contains(ts[0].O.Value, "line one\nline \"two\" here") {
		t.Errorf("long string = %q", ts[0].O.Value)
	}
}

func TestTurtleEscapes(t *testing.T) {
	in := `@prefix : <http://x/> .
:s :p "tab\there\nand A\U0001F600" .
`
	ts := parseTurtle(t, in)
	if ts[0].O.Value != "tab\there\nand A\U0001F600" {
		t.Errorf("escapes = %q", ts[0].O.Value)
	}
}

func TestTurtleBlankNodes(t *testing.T) {
	in := `@prefix : <http://x/> .
_:b1 :p _:b2 .
`
	ts := parseTurtle(t, in)
	if ts[0].S != NewBlank("b1") || ts[0].O != NewBlank("b2") {
		t.Errorf("blank nodes: %v", ts[0])
	}
}

func TestTurtleComments(t *testing.T) {
	in := `# leading comment
@prefix : <http://x/> . # trailing comment
:s :p "v" . # another
`
	ts := parseTurtle(t, in)
	if len(ts) != 1 {
		t.Fatalf("triples = %d", len(ts))
	}
}

func TestTurtleMultipleStatements(t *testing.T) {
	in := `@prefix : <http://x/> .
:a :p "1" .
:b :p "2" .
:c :p "3" .
`
	ts := parseTurtle(t, in)
	if len(ts) != 3 {
		t.Fatalf("triples = %d", len(ts))
	}
}

func TestTurtleErrors(t *testing.T) {
	bad := []string{
		`<http://x/s> <http://x/p> .`,                 // missing object
		`<http://x/s> <http://x/p> "o"`,               // missing dot
		`<http://x/s> <http://x/p> "unterminated .`,   // unterminated string
		`undeclared:name <http://x/p> "o" .`,          // unknown prefix
		`<http://x/s> <http://x/p> "a"@ .`,            // empty language
		`<http://x/s> <http://x/p> "a"^^ .`,           // missing datatype
		`<http://x s> <http://x/p> "o" .`,             // whitespace in IRI
		`<http://x/s> <http://x/p> "bad\q escape" .`,  // bad escape
		`_: <http://x/p> "o" .`,                       // empty blank label
		`<http://x/s> <http://x/p> "a" "b" .`,         // junk between object and dot
		"<http://x/s> <http://x/p> \"new\nline\" . ",  // newline in short string
		`@prefix ex: <http://x/> . ex:a ex:p +x .`,    // malformed number
		`<http://x/s> <http://x/p> "o" ; extra "x" ;`, // dangling po-list at EOF
	}
	for _, in := range bad {
		if _, err := ParseTurtle(strings.NewReader(in)); err == nil {
			t.Errorf("no error for %q", in)
		}
	}
}

func TestTurtleNTriplesCompatible(t *testing.T) {
	// Every N-Triples document is valid Turtle: round-trip one through
	// both parsers and compare.
	ts := []Triple{
		{NewIRI("http://x/s"), NewIRI("http://x/p"), NewString("v \"q\" \\x")},
		{NewIRI("http://x/s"), NewIRI("http://x/p"), NewLangString("fr", "fr")},
		{NewBlank("n"), NewIRI("http://x/p"), NewTyped("1", XSDInteger)},
	}
	var sb strings.Builder
	if err := NewWriter(&sb).WriteAll(ts); err != nil {
		t.Fatal(err)
	}
	chunks, err := ParseNTriples([]byte(sb.String()), 1)
	if err != nil {
		t.Fatal(err)
	}
	fromNT := chunks[0]
	fromTTL := parseTurtle(t, sb.String())
	if len(fromNT) != len(fromTTL) {
		t.Fatalf("NT %d vs TTL %d triples", len(fromNT), len(fromTTL))
	}
	for i := range fromNT {
		if fromNT[i] != fromTTL[i] {
			t.Errorf("triple %d: NT %v vs TTL %v", i, fromNT[i], fromTTL[i])
		}
	}
}

func TestTurtleWriterRoundTrip(t *testing.T) {
	ts := []Triple{
		{NewIRI("http://x/res/a"), NewIRI(RDFType), NewIRI("http://x/ont/Person")},
		{NewIRI("http://x/res/a"), NewIRI("http://x/ont/name"), NewString("Alice \"A\"")},
		{NewIRI("http://x/res/a"), NewIRI("http://x/ont/name"), NewLangString("Alicia", "es")},
		{NewIRI("http://x/res/a"), NewIRI("http://x/ont/age"), NewInt(30)},
		{NewIRI("http://x/res/b"), NewIRI("http://x/ont/height"), NewFloat(1.85)},
		{NewIRI("http://x/res/b"), NewIRI("http://x/ont/active"), NewTyped("true", XSDBoolean)},
		{NewBlank("n1"), NewIRI("http://x/ont/linked"), NewIRI("http://elsewhere/c")},
	}
	var sb strings.Builder
	w := NewTurtleWriter(&sb, map[string]string{
		"res": "http://x/res/",
		"ont": "http://x/ont/",
	})
	if err := w.WriteAll(ts); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "@prefix ont: <http://x/ont/> .") {
		t.Errorf("missing prefix declaration:\n%s", out)
	}
	if !strings.Contains(out, "res:a a ont:Person") {
		t.Errorf("missing 'a' shorthand / prefixed names:\n%s", out)
	}
	if !strings.Contains(out, ", ") {
		t.Errorf("object list not comma-grouped:\n%s", out)
	}
	parsed, err := ParseTurtle(strings.NewReader(out))
	if err != nil {
		t.Fatalf("round trip parse: %v\noutput:\n%s", err, out)
	}
	if len(parsed) != len(ts) {
		t.Fatalf("round trip: %d triples, want %d\n%s", len(parsed), len(ts), out)
	}
	want := map[string]bool{}
	for _, tr := range ts {
		want[tr.String()] = true
	}
	for _, tr := range parsed {
		if !want[tr.String()] {
			t.Errorf("unexpected triple after round trip: %v", tr)
		}
	}
}

func TestTurtleWriterNoPrefixes(t *testing.T) {
	var sb strings.Builder
	w := NewTurtleWriter(&sb, nil)
	w.Write(Triple{NewIRI("http://x/s"), NewIRI("http://x/p"), NewInt(5)})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "<http://x/s> <http://x/p> 5 .") {
		t.Errorf("output = %q", sb.String())
	}
}

func TestTurtleWriterUnsafeLocalName(t *testing.T) {
	var sb strings.Builder
	w := NewTurtleWriter(&sb, map[string]string{"x": "http://x/"})
	// Local parts with special characters fall back to full IRIs.
	w.Write(Triple{NewIRI("http://x/a b"), NewIRI("http://x/p"), NewString("v")})
	w.Write(Triple{NewIRI("http://x/trailing."), NewIRI("http://x/p"), NewString("v")})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "<http://x/a b>") || !strings.Contains(sb.String(), "<http://x/trailing.>") {
		t.Errorf("unsafe local names not escaped:\n%s", sb.String())
	}
}

func TestTurtleWriterGeneratedDatasetRoundTrip(t *testing.T) {
	// Serialize a generated store as Turtle and re-parse it.
	ts := []Triple{}
	for i := 0; i < 30; i++ {
		subj := NewIRI("http://data/e" + string(rune('a'+i%26)) + string(rune('0'+i/26)))
		ts = append(ts,
			Triple{subj, NewIRI(RDFType), NewIRI("http://data/T")},
			Triple{subj, NewIRI("http://data/v"), NewInt(int64(i))},
		)
	}
	var sb strings.Builder
	if err := NewTurtleWriter(&sb, map[string]string{"d": "http://data/"}).WriteAll(ts); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseTurtle(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != len(ts) {
		t.Fatalf("round trip %d triples, want %d", len(parsed), len(ts))
	}
}

// TestTurtleTermGrammar: Turtle reads terms by the grammar N-Triples and
// SPARQL share.
func TestTurtleTermGrammar(t *testing.T) {
	ts := parseTurtle(t, `@prefix : <http://x/> .
:s :p "a\bb\fc" .
_:b1.x :p :o.
`)
	if ts[0].O != NewString("a\bb\fc") {
		t.Errorf("escapes = %v", ts[0].O)
	}
	if ts[1].S != NewBlank("b1.x") || ts[1].O != NewIRI("http://x/o") {
		t.Errorf("inner and final dots: %v", ts[1])
	}
	for _, in := range []string{
		`<http://x/{s}> <http://x/p> "x" .`,
		`<http://x/s> <http://x/p> "a"@en-- .`,
		`<http://x/s> <http://x/p> "a"@en_US .`,
	} {
		if _, err := ParseTurtle(strings.NewReader(in)); err == nil {
			t.Errorf("no error for %q", in)
		}
	}
}
