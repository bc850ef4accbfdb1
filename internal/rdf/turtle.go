package rdf

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"unicode"
	"unicode/utf8"
)

// turtleParser parses a practical subset of the Turtle serialization:
// @prefix and @base directives (and their SPARQL-style PREFIX/BASE forms),
// prefixed names, the 'a' keyword, predicate-object lists with ';',
// object lists with ',', numeric/boolean shorthand literals, language tags
// and datatyped literals, comments, and blank node labels. Collections and
// anonymous blank nodes '[]' are the notable omissions. Statements may span
// lines.
type turtleParser struct {
	in       []rune
	pos      int
	line     int
	prefixes map[string]string
	base     string
	out      []Triple
}

// ParseTurtle parses a complete Turtle document. Reading the input eagerly
// keeps the parser simple; Turtle documents in this system are data-set
// files that fit in memory by design. On a syntax error it returns no
// triples and a *ParseError wrapped as "turtle: line N: …".
func ParseTurtle(r io.Reader) ([]Triple, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	p := &turtleParser{
		in:       []rune(string(data)),
		line:     1,
		prefixes: map[string]string{},
		// Room for one triple per line, but at most one per 16 bytes so
		// blank lines cannot inflate the estimate: regrowing the whole
		// document's triples as they fill the slice cost more than parsing
		// them. Append grows past a low estimate.
		out: make([]Triple, 0, min(bytes.Count(data, []byte{'\n'})+1, len(data)/16+1)),
	}
	for {
		p.skipWS()
		if p.eof() {
			return p.out, nil
		}
		if p.directive() {
			continue
		}
		if err := p.statement(); err != nil {
			return nil, fmt.Errorf("turtle: %w", err)
		}
	}
}

func (r *turtleParser) errf(format string, args ...any) error {
	return &ParseError{Line: r.line, Msg: fmt.Sprintf(format, args...)}
}

func (r *turtleParser) eof() bool { return r.pos >= len(r.in) }

func (r *turtleParser) peek() rune {
	if r.eof() {
		return 0
	}
	return r.in[r.pos]
}

func (r *turtleParser) next() rune {
	c := r.in[r.pos]
	r.pos++
	if c == '\n' {
		r.line++
	}
	return c
}

func (r *turtleParser) skipWS() {
	for !r.eof() {
		c := r.peek()
		if c == '#' {
			for !r.eof() && r.peek() != '\n' {
				r.next()
			}
			continue
		}
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			r.next()
			continue
		}
		break
	}
}

func (r *turtleParser) hasKeyword(kw string) bool {
	if r.pos+len(kw) > len(r.in) {
		return false
	}
	for i, c := range kw {
		got := r.in[r.pos+i]
		if unicode.ToLower(got) != unicode.ToLower(c) {
			return false
		}
	}
	// Keyword boundary.
	if r.pos+len(kw) < len(r.in) {
		after := r.in[r.pos+len(kw)]
		if unicode.IsLetter(after) || unicode.IsDigit(after) {
			return false
		}
	}
	return true
}

// directive consumes @prefix/@base/PREFIX/BASE; reports whether one was
// consumed. Malformed directives surface later as statement errors.
func (r *turtleParser) directive() bool {
	atForm := r.peek() == '@'
	start := r.pos
	if atForm {
		r.next()
	}
	switch {
	case r.hasKeyword("prefix"):
		r.pos += len("prefix")
		r.skipWS()
		name := r.readUntil(':')
		if r.peek() != ':' {
			r.pos = start
			return false
		}
		r.next() // ':'
		r.skipWS()
		iri, err := r.iriRef()
		if err != nil {
			r.pos = start
			return false
		}
		r.prefixes[name] = iri
		r.skipWS()
		if atForm && r.peek() == '.' {
			r.next()
		}
		return true
	case r.hasKeyword("base"):
		r.pos += len("base")
		r.skipWS()
		iri, err := r.iriRef()
		if err != nil {
			r.pos = start
			return false
		}
		r.base = iri
		r.skipWS()
		if atForm && r.peek() == '.' {
			r.next()
		}
		return true
	default:
		r.pos = start
		return false
	}
}

func (r *turtleParser) readUntil(stop rune) string {
	var b strings.Builder
	for !r.eof() {
		c := r.peek()
		if c == stop || c == ' ' || c == '\t' || c == '\n' {
			break
		}
		b.WriteRune(r.next())
	}
	return b.String()
}

// statement parses "subject predicateObjectList ." into out.
func (r *turtleParser) statement() error {
	subj, err := r.subject()
	if err != nil {
		return err
	}
	for {
		r.skipWS()
		pred, err := r.predicate()
		if err != nil {
			return err
		}
		for {
			r.skipWS()
			obj, err := r.object()
			if err != nil {
				return err
			}
			r.out = append(r.out, Triple{S: subj, P: pred, O: obj})
			r.skipWS()
			if r.peek() == ',' {
				r.next()
				continue
			}
			break
		}
		switch r.peek() {
		case ';':
			r.next()
			r.skipWS()
			// Tolerate trailing ';' before '.'.
			if r.peek() == '.' {
				r.next()
				return nil
			}
			continue
		case '.':
			r.next()
			return nil
		default:
			return r.errf("expected ';' or '.' after object, got %q", r.peek())
		}
	}
}

func (r *turtleParser) subject() (Term, error) {
	switch {
	case r.peek() == '<':
		iri, err := r.iriRef()
		if err != nil {
			return Term{}, err
		}
		return NewIRI(iri), nil
	case r.peek() == '_':
		return r.blankNode()
	default:
		return r.prefixedName()
	}
}

func (r *turtleParser) predicate() (Term, error) {
	if r.hasKeyword("a") {
		r.next()
		return NewIRI(RDFType), nil
	}
	if r.peek() == '<' {
		iri, err := r.iriRef()
		if err != nil {
			return Term{}, err
		}
		return NewIRI(iri), nil
	}
	return r.prefixedName()
}

func (r *turtleParser) object() (Term, error) {
	c := r.peek()
	switch {
	case c == '<':
		iri, err := r.iriRef()
		if err != nil {
			return Term{}, err
		}
		return NewIRI(iri), nil
	case c == '"' || c == '\'':
		return r.literal()
	case c == '_':
		return r.blankNode()
	case c == '+' || c == '-' || (c >= '0' && c <= '9'):
		return r.numericLiteral()
	case r.hasKeyword("true"):
		r.pos += 4
		return NewTyped("true", XSDBoolean), nil
	case r.hasKeyword("false"):
		r.pos += 5
		return NewTyped("false", XSDBoolean), nil
	default:
		return r.prefixedName()
	}
}

func (r *turtleParser) iriRef() (string, error) {
	if r.peek() != '<' {
		return "", r.errf("expected '<'")
	}
	r.next()
	var b strings.Builder
	for {
		if r.eof() {
			return "", r.errf("unterminated IRI")
		}
		c := r.next()
		if c == '>' {
			iri := b.String()
			if r.base != "" && !strings.Contains(iri, "://") {
				iri = r.base + iri
			}
			return iri, nil
		}
		if c == ' ' || c == '\n' || c == '\t' {
			return "", r.errf("whitespace inside IRI")
		}
		b.WriteRune(c)
	}
}

func (r *turtleParser) blankNode() (Term, error) {
	if r.peek() != '_' {
		return Term{}, r.errf("expected blank node")
	}
	r.next()
	if r.peek() != ':' {
		return Term{}, r.errf("expected ':' after '_'")
	}
	r.next()
	var b strings.Builder
	for !r.eof() {
		c := r.peek()
		if !unicode.IsLetter(c) && !unicode.IsDigit(c) && c != '_' && c != '-' {
			break
		}
		b.WriteRune(r.next())
	}
	if b.Len() == 0 {
		return Term{}, r.errf("empty blank node label")
	}
	return NewBlank(b.String()), nil
}

func (r *turtleParser) prefixedName() (Term, error) {
	var prefix strings.Builder
	for !r.eof() {
		c := r.peek()
		if c == ':' {
			break
		}
		if !unicode.IsLetter(c) && !unicode.IsDigit(c) && c != '_' && c != '-' {
			return Term{}, r.errf("unexpected character %q in prefixed name", c)
		}
		prefix.WriteRune(r.next())
	}
	if r.peek() != ':' {
		return Term{}, r.errf("expected ':' in prefixed name after %q", prefix.String())
	}
	r.next()
	var local strings.Builder
	for !r.eof() {
		c := r.peek()
		if !unicode.IsLetter(c) && !unicode.IsDigit(c) && c != '_' && c != '-' && c != '.' {
			break
		}
		local.WriteRune(r.next())
	}
	// A trailing '.' is the statement terminator, not part of the name.
	name := local.String()
	for strings.HasSuffix(name, ".") {
		name = name[:len(name)-1]
		r.pos--
	}
	base, ok := r.prefixes[prefix.String()]
	if !ok {
		return Term{}, r.errf("undeclared prefix %q", prefix.String())
	}
	return NewIRI(base + name), nil
}

func (r *turtleParser) literal() (Term, error) {
	quote := r.peek()
	if quote != '"' && quote != '\'' {
		return Term{}, r.errf("expected quote")
	}
	// Long (triple-quoted) form?
	long := false
	if r.pos+2 < len(r.in) && r.in[r.pos+1] == quote && r.in[r.pos+2] == quote {
		long = true
		r.next()
		r.next()
	}
	r.next()
	var b strings.Builder
	for {
		if r.eof() {
			return Term{}, r.errf("unterminated string literal")
		}
		c := r.next()
		if c == quote {
			if !long {
				break
			}
			if r.peek() == quote && r.pos+1 < len(r.in) && r.in[r.pos+1] == quote {
				r.next()
				r.next()
				break
			}
			b.WriteRune(c)
			continue
		}
		if c == '\\' {
			if r.eof() {
				return Term{}, r.errf("dangling escape")
			}
			e := r.next()
			switch e {
			case 't':
				b.WriteByte('\t')
			case 'n':
				b.WriteByte('\n')
			case 'r':
				b.WriteByte('\r')
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
				var cp rune
				for i := 0; i < n; i++ {
					if r.eof() {
						return Term{}, r.errf("truncated \\%c escape", e)
					}
					d := hexVal(byte(r.next()))
					if d < 0 {
						return Term{}, r.errf("invalid hex digit in \\%c escape", e)
					}
					cp = cp<<4 | rune(d)
				}
				if !utf8.ValidRune(cp) {
					return Term{}, r.errf("invalid code point in \\%c escape", e)
				}
				b.WriteRune(cp)
			default:
				return Term{}, r.errf("unknown escape \\%c", e)
			}
			continue
		}
		if !long && c == '\n' {
			return Term{}, r.errf("newline in short string literal")
		}
		b.WriteRune(c)
	}
	lex := b.String()
	switch r.peek() {
	case '@':
		r.next()
		var lang strings.Builder
		for !r.eof() {
			c := r.peek()
			if !unicode.IsLetter(c) && !unicode.IsDigit(c) && c != '-' {
				break
			}
			lang.WriteRune(r.next())
		}
		if lang.Len() == 0 {
			return Term{}, r.errf("empty language tag")
		}
		return NewLangString(lex, lang.String()), nil
	case '^':
		r.next()
		if r.peek() != '^' {
			return Term{}, r.errf("expected ^^")
		}
		r.next()
		if r.peek() == '<' {
			iri, err := r.iriRef()
			if err != nil {
				return Term{}, err
			}
			return NewTyped(lex, iri), nil
		}
		dt, err := r.prefixedName()
		if err != nil {
			return Term{}, err
		}
		return NewTyped(lex, dt.Value), nil
	default:
		return NewString(lex), nil
	}
}

func (r *turtleParser) numericLiteral() (Term, error) {
	var b strings.Builder
	c := r.peek()
	if c == '+' || c == '-' {
		b.WriteRune(r.next())
	}
	digits, dot := 0, false
	for !r.eof() {
		c := r.peek()
		if c >= '0' && c <= '9' {
			b.WriteRune(r.next())
			digits++
			continue
		}
		if c == '.' && !dot {
			// "1." at end of statement is integer + terminator.
			if r.pos+1 < len(r.in) {
				nc := r.in[r.pos+1]
				if nc < '0' || nc > '9' {
					break
				}
			} else {
				break
			}
			dot = true
			b.WriteRune(r.next())
			continue
		}
		break
	}
	if digits == 0 {
		return Term{}, r.errf("malformed numeric literal")
	}
	if dot {
		return NewTyped(b.String(), XSDDouble), nil
	}
	return NewTyped(b.String(), XSDInteger), nil
}
