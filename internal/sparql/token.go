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

type lexer struct {
	in  string
	pos int
}

func (l *lexer) errf(pos int, format string, args ...any) error {
	return &SyntaxError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

func isIdentStart(r rune) bool { return unicode.IsLetter(r) || r == '_' }
func isIdentRune(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '-'
}

func (l *lexer) next() (token, error) {
	l.pos = rdf.SkipSpace(l.in, l.pos)
	start := l.pos
	if l.pos >= len(l.in) {
		return token{kind: tokEOF, pos: start}, nil
	}
	c := l.in[l.pos]
	switch c {
	case '{':
		l.pos++
		return token{tokLBrace, "{", start}, nil
	case '}':
		l.pos++
		return token{tokRBrace, "}", start}, nil
	case '(':
		l.pos++
		return token{tokLParen, "(", start}, nil
	case ')':
		l.pos++
		return token{tokRParen, ")", start}, nil
	case '.':
		l.pos++
		return token{tokDot, ".", start}, nil
	case ';':
		l.pos++
		return token{tokSemi, ";", start}, nil
	case ',':
		l.pos++
		return token{tokComma, ",", start}, nil
	case '/':
		l.pos++
		return token{tokOp, "/", start}, nil
	case '*':
		l.pos++
		return token{tokStar, "*", start}, nil
	case '?', '$':
		l.pos++
		s := l.pos
		for l.pos < len(l.in) && isIdentRune(rune(l.in[l.pos])) {
			l.pos++
		}
		if l.pos == s {
			if c == '?' {
				// Bare '?' is the zero-or-one path modifier.
				return token{tokOp, "?", start}, nil
			}
			return token{}, l.errf(start, "empty variable name")
		}
		return token{tokVar, l.in[s:l.pos], start}, nil
	case '<':
		// A '<' that does not start an IRI is an operator.
		if end, err := rdf.ScanIRI(l.in, start); err == nil {
			l.pos = end
			return token{tokIRI, l.in[start+1 : end-1], start}, nil
		}
		if l.pos+1 < len(l.in) && l.in[l.pos+1] == '=' {
			l.pos += 2
			return token{tokOp, "<=", start}, nil
		}
		l.pos++
		return token{tokOp, "<", start}, nil
	case '>':
		if l.pos+1 < len(l.in) && l.in[l.pos+1] == '=' {
			l.pos += 2
			return token{tokOp, ">=", start}, nil
		}
		l.pos++
		return token{tokOp, ">", start}, nil
	case '=':
		l.pos++
		return token{tokOp, "=", start}, nil
	case '!':
		if l.pos+1 < len(l.in) && l.in[l.pos+1] == '=' {
			l.pos += 2
			return token{tokOp, "!=", start}, nil
		}
		l.pos++
		return token{tokOp, "!", start}, nil
	case '&':
		if l.pos+1 < len(l.in) && l.in[l.pos+1] == '&' {
			l.pos += 2
			return token{tokOp, "&&", start}, nil
		}
		return token{}, l.errf(start, "expected &&")
	case '|':
		if l.pos+1 < len(l.in) && l.in[l.pos+1] == '|' {
			l.pos += 2
			return token{tokOp, "||", start}, nil
		}
		// Single '|' is the path-alternative operator.
		l.pos++
		return token{tokOp, "|", start}, nil
	case '@':
		l.pos = rdf.ScanLangTag(l.in, start)
		if l.pos == start {
			return token{}, l.errf(start, "malformed language tag")
		}
		return token{tokLangTag, l.in[start+1 : l.pos], start}, nil
	case '^':
		if l.pos+1 < len(l.in) && l.in[l.pos+1] == '^' {
			l.pos += 2
			return token{tokDTSep, "^^", start}, nil
		}
		// Single '^' is the inverse-path operator.
		l.pos++
		return token{tokOp, "^", start}, nil
	case '"', '\'':
		v, end, err := rdf.ScanString(l.in, start)
		if err != nil {
			return token{}, l.errf(start, "%v", err)
		}
		l.pos = end
		return token{tokString, v, start}, nil
	}
	// A number, a prefixed name, or else a bare '-' (subtraction) or '+'
	// (the one-or-more path modifier).
	if end := rdf.ScanNumber(l.in, start); end > start {
		l.pos = end
		return token{tokNumber, l.in[start:end], start}, nil
	}
	if _, end := rdf.ScanPrefixedName(l.in, start); end > start {
		l.pos = end
		return token{tokPName, l.in[start:end], start}, nil
	}
	if c == '-' || c == '+' {
		l.pos++
		return token{tokOp, l.in[start:l.pos], start}, nil
	}
	if isIdentStart(rune(c)) {
		for l.pos < len(l.in) && isIdentRune(rune(l.in[l.pos])) {
			l.pos++
		}
		word := l.in[start:l.pos]
		if word == "a" {
			return token{tokA, "a", start}, nil
		}
		return token{tokIdent, word, start}, nil
	}
	return token{}, l.errf(start, "unexpected character %q", c)
}
