package rdf

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// ParseError describes a syntax error with its line number. The parsers
// return it wrapped with the format's name: "ntriples: line 3: …" or
// "turtle: line 3: …".
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("line %d: %s", e.Line, e.Msg)
}

// parseNTriplesLine parses one non-blank, non-comment N-Triples statement.
// Errors carry no line number; ParseNTriples attaches the position as a
// *ParseError.
func parseNTriplesLine(line string) (Triple, error) {
	p := &lineParser{in: line}
	s, err := p.term()
	if err != nil {
		return Triple{}, fmt.Errorf("subject: %w", err)
	}
	if s.Kind == KindLiteral {
		return Triple{}, fmt.Errorf("subject must not be a literal")
	}
	pr, err := p.term()
	if err != nil {
		return Triple{}, fmt.Errorf("predicate: %w", err)
	}
	if pr.Kind != KindIRI {
		return Triple{}, fmt.Errorf("predicate must be an IRI")
	}
	o, err := p.term()
	if err != nil {
		return Triple{}, fmt.Errorf("object: %w", err)
	}
	p.skipWS()
	if !p.consume('.') {
		return Triple{}, fmt.Errorf("expected terminating '.'")
	}
	p.skipWS()
	if !p.eof() {
		return Triple{}, fmt.Errorf("trailing content after '.'")
	}
	return Triple{S: s, P: pr, O: o}, nil
}

// lineParser is a cursor over one N-Triples line.
type lineParser struct {
	in  string
	pos int
}

func (p *lineParser) eof() bool { return p.pos >= len(p.in) }

func (p *lineParser) peek() byte {
	if p.eof() {
		return 0
	}
	return p.in[p.pos]
}

func (p *lineParser) consume(c byte) bool {
	if p.peek() == c {
		p.pos++
		return true
	}
	return false
}

func (p *lineParser) skipWS() {
	for !p.eof() && (p.in[p.pos] == ' ' || p.in[p.pos] == '\t') {
		p.pos++
	}
}

// term reads one IRI, blank node or literal. N-Triples' own rules are
// kept here: IRIs are not empty and strings are short, in double quotes.
func (p *lineParser) term() (Term, error) {
	p.skipWS()
	start := p.pos
	switch p.peek() {
	case '<':
		end, err := ScanIRI(p.in, start)
		if err != nil {
			return Term{}, err
		}
		p.pos = end
		if end == start+2 {
			return Term{}, fmt.Errorf("empty IRI")
		}
		return NewIRI(p.in[start+1 : end-1]), nil
	case '_':
		end := ScanBlankLabel(p.in, start)
		if end == start {
			return Term{}, fmt.Errorf("malformed blank node label")
		}
		p.pos = end
		return NewBlank(p.in[start+2 : end]), nil
	case '"':
		if strings.HasPrefix(p.in[start:], `"""`) {
			return Term{}, fmt.Errorf("long string literal")
		}
		lex, end, err := ScanString(p.in, start)
		if err != nil {
			return Term{}, err
		}
		p.pos = end
		t := NewString(lex)
		switch {
		case p.peek() == '@':
			end := ScanLangTag(p.in, p.pos)
			if end == p.pos {
				return Term{}, fmt.Errorf("malformed language tag")
			}
			t.Lang = p.in[p.pos+1 : end]
			p.pos = end
		case strings.HasPrefix(p.in[p.pos:], "^^"):
			p.pos += 2
			if p.peek() != '<' {
				return Term{}, fmt.Errorf("expected datatype IRI after ^^")
			}
			dt, err := p.term()
			if err != nil {
				return Term{}, fmt.Errorf("datatype: %w", err)
			}
			t.Datatype = dt.Value
		}
		return t, nil
	case 0:
		return Term{}, fmt.Errorf("unexpected end of line")
	default:
		return Term{}, fmt.Errorf("unexpected character %q", p.in[p.pos])
	}
}

// Writer serializes triples in N-Triples form.
type Writer struct {
	w   *bufio.Writer
	err error
}

// NewWriter returns a Writer over w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: bufio.NewWriter(w)} }

// Write appends one triple. Errors are sticky and returned from Flush.
func (w *Writer) Write(t Triple) error {
	if w.err != nil {
		return w.err
	}
	_, w.err = w.w.WriteString(t.String() + "\n")
	return w.err
}

// WriteAll writes every triple and flushes.
func (w *Writer) WriteAll(ts []Triple) error {
	for _, t := range ts {
		if err := w.Write(t); err != nil {
			return err
		}
	}
	return w.Flush()
}

// Flush flushes buffered output and returns any sticky error.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}
