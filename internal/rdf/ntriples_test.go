package rdf

import (
	"errors"
	"io"
	"slices"
	"strings"
	"testing"
)

func parseAll(t *testing.T, in string) []Triple {
	t.Helper()
	chunks, err := ParseNTriples([]byte(in), 1)
	if err != nil {
		t.Fatalf("ParseNTriples: %v", err)
	}
	return chunks[0]
}

func TestNTriplesBasic(t *testing.T) {
	in := `<http://x/s> <http://x/p> <http://x/o> .
<http://x/s> <http://x/p> "lit" .
<http://x/s> <http://x/p> "lit"@en .
<http://x/s> <http://x/p> "5"^^<` + XSDInteger + `> .
_:b1 <http://x/p> "o" .
`
	ts := parseAll(t, in)
	if len(ts) != 5 {
		t.Fatalf("got %d triples, want 5", len(ts))
	}
	if ts[0].O != NewIRI("http://x/o") {
		t.Errorf("triple 0 object = %v", ts[0].O)
	}
	if ts[1].O != NewString("lit") {
		t.Errorf("triple 1 object = %v", ts[1].O)
	}
	if ts[2].O != NewLangString("lit", "en") {
		t.Errorf("triple 2 object = %v", ts[2].O)
	}
	if ts[3].O != NewTyped("5", XSDInteger) {
		t.Errorf("triple 3 object = %v", ts[3].O)
	}
	if ts[4].S != NewBlank("b1") {
		t.Errorf("triple 4 subject = %v", ts[4].S)
	}
}

func TestNTriplesCommentsAndBlankLines(t *testing.T) {
	in := "# a comment\n\n<http://x/s> <http://x/p> \"o\" .\n   \n# end\n"
	ts := parseAll(t, in)
	if len(ts) != 1 {
		t.Fatalf("got %d triples, want 1", len(ts))
	}
}

func TestNTriplesEscapes(t *testing.T) {
	in := `<http://x/s> <http://x/p> "a\tb\nc\"d\\e" .
<http://x/s> <http://x/p> "A\U0001F600" .
`
	ts := parseAll(t, in)
	if ts[0].O.Value != "a\tb\nc\"d\\e" {
		t.Errorf("escaped value = %q", ts[0].O.Value)
	}
	if ts[1].O.Value != "A\U0001F600" {
		t.Errorf("unicode escape = %q", ts[1].O.Value)
	}
}

func TestNTriplesErrors(t *testing.T) {
	bad := []string{
		`"lit" <http://x/p> "o" .`,          // literal subject
		`<http://x/s> "p" "o" .`,            // literal predicate
		`<http://x/s> _:b "o" .`,            // blank predicate
		`<http://x/s> <http://x/p> "o"`,     // missing dot
		`<http://x/s> <http://x/p> "o" . x`, // trailing junk
		`<http://x/s> <http://x/p> "o .`,    // unterminated string
		`<http://x/s <http://x/p> "o" .`,    // unterminated IRI
		`<http://x/s> <http://x/p> "a\q" .`, // bad escape
		`<http://x/s> <http://x/p> "a"@ .`,  // empty lang
		`<> <http://x/p> "o" .`,             // empty IRI
	}
	for _, in := range bad {
		_, err := ParseNTriples([]byte(in), 1)
		if err == nil {
			t.Errorf("no error for %q", in)
			continue
		}
		var pe *ParseError
		if !errors.As(err, &pe) {
			t.Errorf("error for %q is %T, want *ParseError", in, err)
		}
	}
}

// TestParseErrorMessage: each parser names its format and the line.
func TestParseErrorMessage(t *testing.T) {
	const doc = "<http://x/s> <http://x/p> <http://x/o> .\njunk line\n"
	for _, c := range []struct {
		format string
		parse  func() error
	}{
		{"ntriples", func() error { _, err := ParseNTriples([]byte(doc), 1); return err }},
		{"turtle", func() error { _, err := ParseTurtle(strings.NewReader(doc)); return err }},
	} {
		err := c.parse()
		var pe *ParseError
		if !errors.As(err, &pe) {
			t.Fatalf("%s: err = %T, want a *ParseError", c.format, err)
		}
		if pe.Line != 2 {
			t.Errorf("%s: Line = %d, want 2", c.format, pe.Line)
		}
		if want := c.format + ": line 2: "; !strings.HasPrefix(err.Error(), want) {
			t.Errorf("%s: Error() = %q, want prefix %q", c.format, err, want)
		}
	}
}

func TestNTriplesRoundTrip(t *testing.T) {
	ts := []Triple{
		{NewIRI("http://x/s"), NewIRI("http://x/p"), NewIRI("http://x/o")},
		{NewIRI("http://x/s"), NewIRI("http://x/p"), NewString("tab\there \"q\" \\back")},
		{NewIRI("http://x/s"), NewIRI("http://x/p"), NewLangString("hé", "fr")},
		{NewIRI("http://x/s"), NewIRI("http://x/p"), NewTyped("2.5", XSDDouble)},
		{NewBlank("node1"), NewIRI("http://x/p"), NewInt(9)},
	}
	var sb strings.Builder
	if err := NewWriter(&sb).WriteAll(ts); err != nil {
		t.Fatalf("WriteAll: %v", err)
	}
	got := parseAll(t, sb.String())
	if len(got) != len(ts) {
		t.Fatalf("round trip got %d triples, want %d", len(got), len(ts))
	}
	for i := range ts {
		if got[i] != ts[i] {
			t.Errorf("triple %d: got %v, want %v", i, got[i], ts[i])
		}
	}
}

func TestParseNTriplesEmpty(t *testing.T) {
	for _, workers := range []int{1, 4} {
		chunks, err := ParseNTriples(nil, workers)
		if ts := slices.Concat(chunks...); len(ts) != 0 || err != nil {
			t.Errorf("workers %d: empty input = %d triples, %v; want none and no error", workers, len(ts), err)
		}
	}
}

func TestWriterStickyError(t *testing.T) {
	w := NewWriter(failWriter{})
	tr := Triple{NewIRI("http://x/s"), NewIRI("http://x/p"), NewString(strings.Repeat("x", 1<<16))}
	_ = w.Write(tr)
	if err := w.Flush(); err == nil {
		t.Error("expected sticky error from Flush")
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, io.ErrClosedPipe }

// TestNTriplesTermGrammar: a blank-node label does not end with '.', so
// the statement's '.' may follow it directly, and a language tag's
// subtags are not empty.
func TestNTriplesTermGrammar(t *testing.T) {
	ts := parseAll(t, "<http://x/s> <http://x/p> _:o.\n_:a.b <http://x/p> \"x\"@en-US .\n")
	if ts[0].O != NewBlank("o") || ts[1].S != NewBlank("a.b") || ts[1].O.Lang != "en-US" {
		t.Errorf("got %v", ts)
	}
	for _, in := range []string{
		`<http://x/s> <http://x/p> "a"@en-- .`,
		`<http://x/s> <http://x/p> "a"@en- .`,
		"<http://x/s> <http://x/p> \"a\rb\" .",
		`<http://x/s> <http://x/p> """a""" .`,
		"<http://x/a\x01b> <http://x/p> \"x\" .",
	} {
		if _, err := ParseNTriples([]byte(in), 1); err == nil {
			t.Errorf("no error for %q", in)
		}
	}
}

// TestParseNTriplesCopiesNoLine: parsing at one worker allocates as many
// objects for 2,000 statements as for 1,000. Terms are slices of the
// document's one copy, and the triples go into one slice sized by the line
// count. (A literal with an escape is unescaped into a string of its own;
// the fixture has none.)
func TestParseNTriplesCopiesNoLine(t *testing.T) {
	block := `<http://x/s> <http://x/p> <http://x/o> .
_:b1 <http://x/p> "lit"@en .
<http://x/s> <http://x/q> "5"^^<` + XSDInteger + `> .
# a comment

`
	allocs := func(blocks int) float64 {
		doc := []byte(strings.Repeat(block, blocks))
		return testing.AllocsPerRun(5, func() {
			if _, err := ParseNTriples(doc, 1); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(1000/3), allocs(2000/3); small != large {
		t.Errorf("ParseNTriples allocates %v objects for ~1,000 statements and %v for ~2,000", small, large)
	}
}
