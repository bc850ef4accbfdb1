package sparql

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"alex/internal/rdf"
)

// The spelling table records how each of the three term readers — the
// N-Triples line parser, ParseTurtle and the SPARQL parser — reads one
// spelling of one term: the term it returns, or "error". Each row puts its
// input in the object position of one statement (N-Triples and Turtle) or
// in a one-variable VALUES row (SPARQL), followed by a space.
//
// Regenerate with `go test ./internal/sparql -run TestSpellingTable -update`
// only when a reader is meant to change, and list every changed row in
// CHANGES.md.

const spellingGoldenPath = "testdata/spelling.golden"

// spellingClass groups rows by the production they exercise.
type spellingClass struct {
	name string
	rows []string
}

var spellingTable = []spellingClass{
	{"1 strings", []string{
		`"plain"`, `""`, `"é"`, "\"\xff\"",
		`"a\tb"`, `"a\bb"`, `"a\nb"`, `"a\rb"`, `"a\fb"`, `"a\"b"`, `"O\'Brien"`, `"a\\b"`,
		`"\u00e9"`, `"\U0001F600"`, `"\uD800"`, `"\U00110000"`, `"\u00g9"`, `"\u00e"`, `"a\qb"`, `"a\`,
		"\"a\nb\"", "\"a\rb\"", "\"a\x08b\"", "\"a\tb\"",
		`'single'`, `''`, `'a"b'`, `'a\'b'`,
		`"""long"""`, `"""a"b""c"""`, "\"\"\"two\nlines\"\"\"", `'''long'''`, `""""""`, `"""a\tb"""`,
		`"unterminated`, `'unterminated`, `"""unterminated""`,
		`"a"^^<http://x/dt>`, `"a"^^ex:dt`, `"a"^^<http://www.w3.org/2001/XMLSchema#string>`, `"a"^^`,
	}},
	{"2 IRIs", []string{
		`<http://x/o>`, `<>`, `<rel>`, `<http://x/é>`, "<http://x/\xff>",
		`<http://x/a b>`, "<http://x/a\tb>", "<http://x/a\x01b>", "<http://x/a\x7fb>",
		`<http://x/a<b>`, `<http://x/a"b>`, `<http://x/{s}>`, `<http://x/a}b>`, `<http://x/a|b>`,
		`<http://x/a^b>`, "<http://x/a`b>", `<http://x/a\b>`, `<http://x/ab>`, `<=>`,
		`<http://x/o`,
	}},
	{"3 language tags", []string{
		`"a"@en`, `"a"@EN`, `"a"@en-US`, `"a"@en-us-x1`, `"a"@de-1996`,
		`"a"@`, `"a"@en-`, `"a"@en--`, `"a"@en_US`, `"a"@1en`, `"a"@en-US.`, `"a"@é`,
	}},
	{"4 blank-node labels", []string{
		`_:b1`, `_:1a`, `_:a_b`, `_:a-b`, `_:a.b`, `_:b1.x`, `_:o.`, `_:a..b`,
		`_:`, `_:-a`, `_:.a`, `_:é`, `_:a:b`, `_:a~b`,
	}},
	{"5 prefixed names", []string{
		`ex:o`, `ex:`, `ex:a.b`, `ex:o.`, `ex:a..b`, `ex:a.b.`, `ex:1a`, `ex:_a`, `ex:-a`, `ex:a-b`,
		`ex:é`, `ex:a~b`, `ex:a:b`, `ex:a%20b`, `:o`, `undeclared:x`, `e-x:o`, `e.x:o`,
	}},
	{"6 numbers", []string{
		`5`, `-7`, `+3`, `05`, `1.5`, `-1.5`, `.5`, `5.`, `1.2.3`, `1e3`, `+`, `-`, `true`, `false`,
	}},
	{"7 whitespace and comments", []string{
		"\t\"a\"", "\"a\"\t", "\"a\"\r", `"a" # comment`, "\"a\" #\n",
	}},
}

// spellTerm renders a term unambiguously: kind, %q-quoted value, and the
// language tag or datatype when there is one.
func spellTerm(t rdf.Term) string {
	s := fmt.Sprintf("%s %q", t.Kind, t.Value)
	if t.Lang != "" {
		s += fmt.Sprintf(" @%q", t.Lang)
	}
	if t.Datatype != "" {
		s += fmt.Sprintf(" ^^%q", t.Datatype)
	}
	return s
}

// readNTriples reads in as the object of one N-Triples statement.
func readNTriples(in string) (rdf.Term, error) {
	chunks, err := rdf.ParseNTriples([]byte("<http://x/s> <http://x/p> "+in+" ."), 1)
	if err != nil {
		return rdf.Term{}, err
	}
	ts := chunks[0]
	if len(ts) != 1 {
		return rdf.Term{}, fmt.Errorf("%d triples", len(ts))
	}
	return ts[0].O, nil
}

// readTurtle reads in as the object of one Turtle statement, with ex:
// declared.
func readTurtle(in string) (rdf.Term, error) {
	ts, err := rdf.ParseTurtle(strings.NewReader("@prefix ex: <http://x/> .\n<http://x/s> <http://x/p> " + in + " ."))
	if err != nil {
		return rdf.Term{}, err
	}
	if len(ts) != 1 {
		return rdf.Term{}, fmt.Errorf("%d triples", len(ts))
	}
	return ts[0].O, nil
}

// readSPARQL reads in as the one term of a one-variable VALUES row, with
// ex: declared.
func readSPARQL(in string) (rdf.Term, error) {
	q, err := Parse("PREFIX ex: <http://x/> SELECT ?v WHERE { VALUES ?v { " + in + " } }")
	if err != nil {
		return rdf.Term{}, err
	}
	if len(q.Patterns) != 1 {
		return rdf.Term{}, fmt.Errorf("%d patterns", len(q.Patterns))
	}
	v, ok := q.Patterns[0].(Values)
	if !ok || len(v.Rows) != 1 || len(v.Rows[0]) != 1 {
		return rdf.Term{}, fmt.Errorf("not one VALUES term: %#v", q.Patterns[0])
	}
	return v.Rows[0][0], nil
}

// spellingReaders are the table's columns.
var spellingReaders = []struct {
	name string
	read func(string) (rdf.Term, error)
}{
	{"ntriples", readNTriples},
	{"turtle", readTurtle},
	{"sparql", readSPARQL},
}

func renderSpellingTable() string {
	var b strings.Builder
	for _, c := range spellingTable {
		fmt.Fprintf(&b, "# class %s\n", c.name)
		for _, in := range c.rows {
			fmt.Fprintf(&b, "%q\n", in)
			for _, r := range spellingReaders {
				got := "error"
				if t, err := r.read(in); err == nil {
					got = spellTerm(t)
				}
				fmt.Fprintf(&b, "  %-8s %s\n", r.name, got)
			}
		}
	}
	return b.String()
}

// TestSpellingTable pins what each reader makes of every row.
func TestSpellingTable(t *testing.T) {
	got := renderSpellingTable()
	if *updateGolden {
		if err := os.WriteFile(spellingGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(spellingGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("spelling table differs from %s (rerun with -update only for an intended change):\n%s", spellingGoldenPath, firstDiff(got, string(want)))
	}
}

// FuzzTermSpelling: every term any of the three readers accepts, written
// by Term.String, reads back to the same term as an N-Triples object, in
// Turtle, and (IRIs and literals) in a SPARQL VALUES row. A remote source
// relies on it: the client writes Term.String into the query text a
// remote node's lexer reads. Two rules: N-Triples admits no empty IRI, and
// Term.String writes an xsd:string literal as the simple literal it equals
// in RDF 1.1.
func FuzzTermSpelling(f *testing.F) {
	for _, c := range spellingTable {
		for _, in := range c.rows {
			f.Add(in)
		}
	}
	f.Fuzz(func(t *testing.T, in string) {
		for _, r := range spellingReaders {
			term, err := r.read(in)
			if err != nil {
				continue
			}
			want := term
			if want.Datatype == rdf.XSDString {
				want.Datatype = ""
			}
			spelled := term.String()
			for _, back := range spellingReaders {
				if back.name == "ntriples" && term == rdf.NewIRI("") || back.name == "sparql" && term.IsBlank() {
					continue
				}
				got, err := back.read(spelled)
				if err != nil || got != want {
					t.Fatalf("%s read %q as %v, written %s; %s reads that as %v, %v", r.name, in, term, spelled, back.name, got, err)
				}
			}
		}
	})
}
