// Package sparql implements a SPARQL 1.1 subset sufficient for the
// federated linked-data queries ALEX is evaluated on: SELECT (DISTINCT,
// projection, aggregates with GROUP BY), ASK, CONSTRUCT, basic graph
// patterns, property paths (^, /, |, ?, +, *), FILTER expressions with
// arithmetic and [NOT] EXISTS, BIND, OPTIONAL, UNION, VALUES, PREFIX
// declarations, ORDER BY, LIMIT and OFFSET.
//
// The package is deliberately self-contained: a hand-written lexer and
// recursive-descent parser produce a small algebra that internal/fed
// decomposes and executes across sources.
package sparql

import (
	"fmt"
	"unicode"

	"alex/internal/rdf"
)

type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokVar     // ?name
	tokIRI     // <...>
	tokPName   // prefix:local
	tokString  // "..."
	tokNumber  // 123 or 1.5
	tokLBrace  // {
	tokRBrace  // }
	tokLParen  // (
	tokRParen  // )
	tokDot     // .
	tokSemi    // ;
	tokComma   // ,
	tokStar    // *
	tokOp      // comparison / logical operators
	tokA       // the keyword 'a' (rdf:type)
	tokLangTag // @en
	tokDTSep   // ^^
)

type token struct {
	kind tokenKind
	text string
	pos  int
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.text)
}

// SyntaxError reports a query syntax error with byte offset.
type SyntaxError struct {
	Pos int
	Msg string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("sparql: offset %d: %s", e.Pos, e.Msg)
}

// lexer splits a query into tokens. Its first error ends the token
// stream: err keeps the error and every later next returns end of input,
// so callers check err once, after they are done.
type lexer struct {
	in  string
	pos int
	err error
}

// fail records a syntax error at pos and ends the token stream.
func (l *lexer) fail(pos int, format string, args ...any) token {
	l.err = &SyntaxError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
	l.pos = len(l.in)
	return token{kind: tokEOF, pos: pos}
}

func isIdentStart(r rune) bool { return unicode.IsLetter(r) || r == '_' }
func isIdentRune(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '-'
}

func (l *lexer) next() token {
	l.pos = rdf.SkipSpace(l.in, l.pos)
	start := l.pos
	if l.pos >= len(l.in) {
		return token{kind: tokEOF, pos: start}
	}
	c := l.in[l.pos]
	switch c {
	case '{':
		l.pos++
		return token{tokLBrace, "{", start}
	case '}':
		l.pos++
		return token{tokRBrace, "}", start}
	case '(':
		l.pos++
		return token{tokLParen, "(", start}
	case ')':
		l.pos++
		return token{tokRParen, ")", start}
	case '.':
		l.pos++
		return token{tokDot, ".", start}
	case ';':
		l.pos++
		return token{tokSemi, ";", start}
	case ',':
		l.pos++
		return token{tokComma, ",", start}
	case '/':
		l.pos++
		return token{tokOp, "/", start}
	case '*':
		l.pos++
		return token{tokStar, "*", start}
	case '?', '$':
		l.pos++
		s := l.pos
		for l.pos < len(l.in) && isIdentRune(rune(l.in[l.pos])) {
			l.pos++
		}
		if l.pos == s {
			if c == '?' {
				// Bare '?' is the zero-or-one path modifier.
				return token{tokOp, "?", start}
			}
			return l.fail(start, "empty variable name")
		}
		return token{tokVar, l.in[s:l.pos], start}
	case '<':
		// A '<' that does not start an IRI is an operator.
		if end, err := rdf.ScanIRI(l.in, start); err == nil {
			l.pos = end
			return token{tokIRI, l.in[start+1 : end-1], start}
		}
		if l.pos+1 < len(l.in) && l.in[l.pos+1] == '=' {
			l.pos += 2
			return token{tokOp, "<=", start}
		}
		l.pos++
		return token{tokOp, "<", start}
	case '>':
		if l.pos+1 < len(l.in) && l.in[l.pos+1] == '=' {
			l.pos += 2
			return token{tokOp, ">=", start}
		}
		l.pos++
		return token{tokOp, ">", start}
	case '=':
		l.pos++
		return token{tokOp, "=", start}
	case '!':
		if l.pos+1 < len(l.in) && l.in[l.pos+1] == '=' {
			l.pos += 2
			return token{tokOp, "!=", start}
		}
		l.pos++
		return token{tokOp, "!", start}
	case '&':
		if l.pos+1 < len(l.in) && l.in[l.pos+1] == '&' {
			l.pos += 2
			return token{tokOp, "&&", start}
		}
		return l.fail(start, "expected &&")
	case '|':
		if l.pos+1 < len(l.in) && l.in[l.pos+1] == '|' {
			l.pos += 2
			return token{tokOp, "||", start}
		}
		// Single '|' is the path-alternative operator.
		l.pos++
		return token{tokOp, "|", start}
	case '@':
		l.pos = rdf.ScanLangTag(l.in, start)
		if l.pos == start {
			return l.fail(start, "malformed language tag")
		}
		return token{tokLangTag, l.in[start+1 : l.pos], start}
	case '^':
		if l.pos+1 < len(l.in) && l.in[l.pos+1] == '^' {
			l.pos += 2
			return token{tokDTSep, "^^", start}
		}
		// Single '^' is the inverse-path operator.
		l.pos++
		return token{tokOp, "^", start}
	case '"', '\'':
		v, end, err := rdf.ScanString(l.in, start)
		if err != nil {
			return l.fail(start, "%v", err)
		}
		l.pos = end
		return token{tokString, v, start}
	}
	// A number, a prefixed name, or else a bare '-' (subtraction) or '+'
	// (the one-or-more path modifier).
	if end := rdf.ScanNumber(l.in, start); end > start {
		l.pos = end
		return token{tokNumber, l.in[start:end], start}
	}
	if _, end := rdf.ScanPrefixedName(l.in, start); end > start {
		l.pos = end
		return token{tokPName, l.in[start:end], start}
	}
	if c == '-' || c == '+' {
		l.pos++
		return token{tokOp, l.in[start:l.pos], start}
	}
	if isIdentStart(rune(c)) {
		for l.pos < len(l.in) && isIdentRune(rune(l.in[l.pos])) {
			l.pos++
		}
		word := l.in[start:l.pos]
		if word == "a" {
			return token{tokA, "a", start}
		}
		return token{tokIdent, word, start}
	}
	return l.fail(start, "unexpected character %q", c)
}
