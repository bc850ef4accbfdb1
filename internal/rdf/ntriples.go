package rdf

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"unicode/utf8"
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

func (p *lineParser) term() (Term, error) {
	p.skipWS()
	switch p.peek() {
	case '<':
		return p.iri()
	case '_':
		return p.blank()
	case '"':
		return p.literal()
	case 0:
		return Term{}, fmt.Errorf("unexpected end of line")
	default:
		return Term{}, fmt.Errorf("unexpected character %q", p.in[p.pos])
	}
}

func (p *lineParser) iri() (Term, error) {
	p.pos++ // '<'
	end := strings.IndexByte(p.in[p.pos:], '>')
	if end < 0 {
		return Term{}, fmt.Errorf("unterminated IRI")
	}
	iri := p.in[p.pos : p.pos+end]
	p.pos += end + 1
	if iri == "" {
		return Term{}, fmt.Errorf("empty IRI")
	}
	if strings.ContainsAny(iri, " \t\"{}|^`\\") {
		return Term{}, fmt.Errorf("invalid character in IRI %q", iri)
	}
	return NewIRI(iri), nil
}

func (p *lineParser) blank() (Term, error) {
	if !strings.HasPrefix(p.in[p.pos:], "_:") {
		return Term{}, fmt.Errorf("expected blank node label")
	}
	p.pos += 2
	start := p.pos
	for !p.eof() {
		c := p.in[p.pos]
		if c == ' ' || c == '\t' {
			break
		}
		p.pos++
	}
	label := p.in[start:p.pos]
	if label == "" {
		return Term{}, fmt.Errorf("empty blank node label")
	}
	return NewBlank(label), nil
}

func (p *lineParser) literal() (Term, error) {
	lex, err := p.quotedString()
	if err != nil {
		return Term{}, err
	}
	t := Term{Kind: KindLiteral, Value: lex}
	switch {
	case p.consume('@'):
		start := p.pos
		for !p.eof() {
			c := p.in[p.pos]
			if !isLangChar(c) {
				break
			}
			p.pos++
		}
		t.Lang = p.in[start:p.pos]
		if t.Lang == "" {
			return Term{}, fmt.Errorf("empty language tag")
		}
	case strings.HasPrefix(p.in[p.pos:], "^^"):
		p.pos += 2
		if p.peek() != '<' {
			return Term{}, fmt.Errorf("expected datatype IRI after ^^")
		}
		dt, err := p.iri()
		if err != nil {
			return Term{}, fmt.Errorf("datatype: %w", err)
		}
		t.Datatype = dt.Value
	}
	return t, nil
}

func isLangChar(c byte) bool {
	return c == '-' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}

// quotedString parses a double-quoted string with N-Triples escapes.
func (p *lineParser) quotedString() (string, error) {
	if !p.consume('"') {
		return "", fmt.Errorf("expected opening quote")
	}
	var b strings.Builder
	for {
		if p.eof() {
			return "", fmt.Errorf("unterminated string literal")
		}
		c := p.in[p.pos]
		switch c {
		case '"':
			p.pos++
			return b.String(), nil
		case '\\':
			p.pos++
			if p.eof() {
				return "", fmt.Errorf("dangling escape")
			}
			e := p.in[p.pos]
			p.pos++
			switch e {
			case 't':
				b.WriteByte('\t')
			case 'n':
				b.WriteByte('\n')
			case 'r':
				b.WriteByte('\r')
			case 'b':
				b.WriteByte('\b')
			case 'f':
				b.WriteByte('\f')
			case '"':
				b.WriteByte('"')
			case '\'':
				b.WriteByte('\'')
			case '\\':
				b.WriteByte('\\')
			case 'u', 'U':
				n := 4
				if e == 'U' {
					n = 8
				}
				if p.pos+n > len(p.in) {
					return "", fmt.Errorf("truncated \\%c escape", e)
				}
				var r rune
				for i := 0; i < n; i++ {
					d := hexVal(p.in[p.pos+i])
					if d < 0 {
						return "", fmt.Errorf("invalid hex digit in \\%c escape", e)
					}
					r = r<<4 | rune(d)
				}
				p.pos += n
				if !utf8.ValidRune(r) {
					return "", fmt.Errorf("invalid code point in \\%c escape", e)
				}
				b.WriteRune(r)
			default:
				return "", fmt.Errorf("unknown escape \\%c", e)
			}
		default:
			b.WriteByte(c)
			p.pos++
		}
	}
}

func hexVal(c byte) int {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0')
	case c >= 'a' && c <= 'f':
		return int(c-'a') + 10
	case c >= 'A' && c <= 'F':
		return int(c-'A') + 10
	default:
		return -1
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
