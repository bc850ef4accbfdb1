package rdf

import (
	"errors"
	"slices"
	"strings"
	"testing"
)

// Fuzz targets: the parsers must never panic and, where they succeed, must
// produce triples that re-serialize and re-parse to the same values. The
// chunked N-Triples parser must also agree with refParseNTriples.

// refParseNTriples is the reference N-Triples front end: one line at a
// time, blank and comment lines skipped, the first malformed line reported
// with its 1-based number.
func refParseNTriples(in string) ([]Triple, *ParseError) {
	var out []Triple
	for i, line := range strings.Split(in, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		t, err := parseNTriplesLine(line)
		if err != nil {
			return nil, &ParseError{Line: i + 1, Msg: err.Error()}
		}
		out = append(out, t)
	}
	return out, nil
}

func FuzzNTriples(f *testing.F) {
	seeds := []string{
		`<http://x/s> <http://x/p> "o" .`,
		`<http://x/s> <http://x/p> <http://x/o> .`,
		`_:b <http://x/p> "a\tb"@en .`,
		`<http://x/s> <http://x/p> "5"^^<http://www.w3.org/2001/XMLSchema#integer> .`,
		"# comment\n\n<http://x/s> <http://x/p> \"x\" .",
		`<http://x/s> <http://x/p> "é\U0001F600" .`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		ts, want := refParseNTriples(in)
		for _, workers := range []int{1, 4} {
			chunks, err := ParseNTriples([]byte(in), workers)
			got := slices.Concat(chunks...)
			var pe *ParseError
			if (err == nil) != (want == nil) || (want != nil && (!errors.As(err, &pe) || *pe != *want)) {
				t.Fatalf("workers %d: error %v, line loop %v", workers, err, want)
			}
			if want == nil && !slices.Equal(got, ts) {
				t.Fatalf("workers %d: %d triples differ from the line loop's %d", workers, len(got), len(ts))
			}
		}
		if want != nil {
			return
		}
		// Successful parses must round-trip.
		var sb strings.Builder
		if err := NewWriter(&sb).WriteAll(ts); err != nil {
			t.Fatalf("reserialize: %v", err)
		}
		chunks, err := ParseNTriples([]byte(sb.String()), 1)
		if err != nil {
			t.Fatalf("reparse of own output failed: %v\noutput: %q", err, sb.String())
		}
		back := chunks[0]
		if len(back) != len(ts) {
			t.Fatalf("round trip changed triple count: %d -> %d", len(ts), len(back))
		}
		for i := range ts {
			if back[i] != ts[i] {
				t.Fatalf("round trip changed triple %d: %v -> %v", i, ts[i], back[i])
			}
		}
	})
}

func FuzzTurtle(f *testing.F) {
	seeds := []string{
		`@prefix ex: <http://x/> . ex:a ex:p "v" .`,
		`<http://x/s> <http://x/p> 42 .`,
		`@base <http://b/> . <a> <p> <c> .`,
		`@prefix : <http://x/> . :a :p "x", 'y' ; a :T .`,
		`_:b1 <http://x/p> true .`,
		"@prefix : <http://x/> .\n:s :p \"\"\"multi\nline\"\"\" .",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Add(`<http://x/{s}> <http://x/p> "x" .`)
	f.Add(`<http://x/s> <http://x/p> "a\bb\fc"@en-US, _:b1.x, 'q', """l"o"ng""" .`)
	f.Fuzz(func(t *testing.T, in string) {
		ts, err := ParseTurtle(strings.NewReader(in))
		if err != nil {
			return
		}
		// What Turtle accepts, N-Triples reads back from NewWriter's
		// output, but for the empty IRI, which N-Triples does not admit.
		for _, tr := range ts {
			for _, term := range [...]Term{tr.S, tr.P, tr.O} {
				if term == NewIRI("") {
					return
				}
			}
		}
		var sb strings.Builder
		if err := NewWriter(&sb).WriteAll(ts); err != nil {
			t.Fatalf("write: %v", err)
		}
		chunks, err := ParseNTriples([]byte(sb.String()), 1)
		if err != nil {
			t.Fatalf("N-Triples rejects the written Turtle triples: %v\noutput: %q", err, sb.String())
		}
		back := chunks[0]
		if len(back) != len(ts) {
			t.Fatalf("round trip changed triple count: %d -> %d", len(ts), len(back))
		}
		for i := range ts {
			if back[i] != simpleString(ts[i]) {
				t.Fatalf("round trip changed triple %d: %v -> %v", i, ts[i], back[i])
			}
		}
	})
}

// simpleString reads tr's xsd:string object as the simple literal
// Term.String writes for it: in RDF 1.1 the two are one term.
func simpleString(tr Triple) Triple {
	if tr.O.Datatype == XSDString {
		tr.O.Datatype = ""
	}
	return tr
}
