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
// lines. It is a byte cursor over the document; terms are read by the
// scanners in lex.go.
type turtleParser struct {
	in       string
	pos      int
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
		in:       string(data),
		prefixes: map[string]string{},
		// Room for one triple per line, but at most one per 16 bytes so
		// blank lines cannot inflate the estimate: regrowing the whole
		// document's triples as they fill the slice cost more than parsing
		// them. Append grows past a low estimate.
		out: make([]Triple, 0, min(bytes.Count(data, []byte{'\n'})+1, len(data)/16+1)),
	}
	for {
		p.pos = SkipSpace(p.in, p.pos)
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

// errf builds a *ParseError on the line of the cursor.
func (r *turtleParser) errf(format string, args ...any) error {
	return &ParseError{Line: 1 + strings.Count(r.in[:r.pos], "\n"), Msg: fmt.Sprintf(format, args...)}
}

func (r *turtleParser) eof() bool { return r.pos >= len(r.in) }

func (r *turtleParser) peek() byte {
	if r.eof() {
		return 0
	}
	return r.in[r.pos]
}

// hasKeyword reports whether the ASCII keyword kw, in any case, is at the
// cursor and not followed by a letter or digit.
func (r *turtleParser) hasKeyword(kw string) bool {
	if len(r.in)-r.pos < len(kw) || !strings.EqualFold(r.in[r.pos:r.pos+len(kw)], kw) {
		return false
	}
	after, _ := utf8.DecodeRuneInString(r.in[r.pos+len(kw):])
	return !unicode.IsLetter(after) && !unicode.IsDigit(after)
}

// directive consumes @prefix/@base/PREFIX/BASE; reports whether one was
// consumed. Malformed directives surface later as statement errors.
func (r *turtleParser) directive() bool {
	start := r.pos
	atForm := r.peek() == '@'
	if atForm {
		r.pos++
	}
	iri := func() (string, bool) {
		if r.peek() != '<' {
			return "", false
		}
		t, err := r.term()
		return t.Value, err == nil
	}
	ok := false
	switch {
	case r.hasKeyword("prefix"):
		r.pos = SkipSpace(r.in, r.pos+len("prefix"))
		if colon, end := ScanPrefixedName(r.in, r.pos); end == colon+1 {
			name := r.in[r.pos:colon]
			r.pos = SkipSpace(r.in, end)
			var ns string
			if ns, ok = iri(); ok {
				r.prefixes[name] = ns
			}
		}
	case r.hasKeyword("base"):
		r.pos = SkipSpace(r.in, r.pos+len("base"))
		var base string
		if base, ok = iri(); ok {
			r.base = base
		}
	}
	if !ok {
		r.pos = start
		return false
	}
	r.pos = SkipSpace(r.in, r.pos)
	if atForm && r.peek() == '.' {
		r.pos++
	}
	return true
}

// statement parses "subject predicateObjectList ." into out.
func (r *turtleParser) statement() error {
	start := r.pos
	subj, err := r.term()
	if err != nil {
		return err
	}
	if subj.Kind == KindLiteral {
		r.pos = start
		return r.errf("subject must not be a literal")
	}
	for {
		r.pos = SkipSpace(r.in, r.pos)
		pred := NewIRI(RDFType)
		if r.hasKeyword("a") {
			r.pos++
		} else if pred, err = r.iriTerm(); err != nil {
			return err
		}
		for {
			r.pos = SkipSpace(r.in, r.pos)
			obj, err := r.term()
			if err != nil {
				return err
			}
			r.out = append(r.out, Triple{S: subj, P: pred, O: obj})
			r.pos = SkipSpace(r.in, r.pos)
			if r.peek() == ',' {
				r.pos++
				continue
			}
			break
		}
		switch r.peek() {
		case ';':
			r.pos++
			r.pos = SkipSpace(r.in, r.pos)
			// Tolerate trailing ';' before '.'.
			if r.peek() == '.' {
				r.pos++
				return nil
			}
			continue
		case '.':
			r.pos++
			return nil
		default:
			return r.errf("expected ';' or '.' after object, got %q", r.peek())
		}
	}
}

// iriTerm reads an IRI or a prefixed name.
func (r *turtleParser) iriTerm() (Term, error) {
	start := r.pos
	t, err := r.term()
	if err == nil && t.Kind != KindIRI {
		r.pos = start
		return Term{}, r.errf("expected an IRI")
	}
	return t, err
}

// term reads one IRI (resolved against @base), blank node, literal or
// prefixed name at the cursor.
func (r *turtleParser) term() (Term, error) {
	start := r.pos
	switch c := r.peek(); {
	case c == '<':
		end, err := ScanIRI(r.in, start)
		r.pos = end
		if err != nil {
			return Term{}, r.errf("%v", err)
		}
		iri := r.in[start+1 : end-1]
		if r.base != "" && !strings.Contains(iri, "://") {
			iri = r.base + iri
		}
		return NewIRI(iri), nil
	case c == '_':
		end := ScanBlankLabel(r.in, start)
		if end == start {
			return Term{}, r.errf("malformed blank node label")
		}
		r.pos = end
		return NewBlank(r.in[start+2 : end]), nil
	case c == '"' || c == '\'':
		lex, end, err := ScanString(r.in, start)
		r.pos = end
		if err != nil {
			return Term{}, r.errf("%v", err)
		}
		t := NewString(lex)
		switch {
		case r.peek() == '@':
			end := ScanLangTag(r.in, r.pos)
			if end == r.pos {
				return Term{}, r.errf("malformed language tag")
			}
			t.Lang = r.in[r.pos+1 : end]
			r.pos = end
		case strings.HasPrefix(r.in[r.pos:], "^^"):
			r.pos += 2
			if c := r.peek(); c == '"' || c == '\'' {
				return Term{}, r.errf("expected datatype IRI")
			}
			dt, err := r.iriTerm()
			if err != nil {
				return Term{}, err
			}
			t.Datatype = dt.Value
		}
		return t, nil
	case c == '+' || c == '-' || isDigit(c):
		end := ScanNumber(r.in, start)
		if end == start {
			return Term{}, r.errf("malformed numeric literal")
		}
		r.pos = end
		if strings.IndexByte(r.in[start:end], '.') >= 0 {
			return NewTyped(r.in[start:end], XSDDouble), nil
		}
		return NewTyped(r.in[start:end], XSDInteger), nil
	}
	if colon, end := ScanPrefixedName(r.in, start); end > start {
		r.pos = end
		base, ok := r.prefixes[r.in[start:colon]]
		if !ok {
			return Term{}, r.errf("undeclared prefix %q", r.in[start:colon])
		}
		return NewIRI(base + r.in[colon+1:end]), nil
	}
	for _, kw := range [...]string{"true", "false"} {
		if r.hasKeyword(kw) {
			r.pos += len(kw)
			return NewTyped(kw, XSDBoolean), nil
		}
	}
	return Term{}, r.errf("unexpected character %q", r.peek())
}
