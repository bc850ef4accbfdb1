package sparql

import (
	"strings"

	"alex/internal/rdf"
)

// NormalizeQuery renders a query's token stream into a canonical string,
// the cache key of the endpoint's prepared-query cache: two queries that
// differ only in whitespace, comments, keyword case, string-escape
// spelling or ?/$ variable sigils normalize to the same key and therefore
// share one compiled entry. Normalization is purely lexical — token order
// and token values are preserved — so the normalized text parses to the
// same algebra as the input, and the function is idempotent (normalizing
// a normalized query is the identity). Inputs that fail to tokenize
// return the lexer's error; the parser would reject them identically, so
// callers can serve that error without a cache entry.
func NormalizeQuery(query string) (string, error) {
	l := &lexer{in: query}
	var b strings.Builder
	b.Grow(len(query))
	for tok := l.next(); tok.kind != tokEOF; tok = l.next() {
		if b.Len() > 0 { // every token writes at least one byte
			b.WriteByte(' ')
		}
		writeNormalToken(&b, tok)
	}
	if l.err != nil {
		return "", l.err
	}
	return b.String(), nil
}

// writeNormalToken renders one token in its canonical spelling. Idents are
// uppercased — the grammar treats every bare identifier (keywords, builtin
// functions, aggregate names) case-insensitively — and strings are
// re-quoted from their decoded value by rdf.WriteQuoted, collapsing
// alternative quote and escape spellings of the same literal.
func writeNormalToken(b *strings.Builder, tok token) {
	switch tok.kind {
	case tokIdent:
		writeASCIIUpper(b, tok.text)
	case tokVar:
		b.WriteByte('?')
		b.WriteString(tok.text)
	case tokIRI:
		b.WriteByte('<')
		b.WriteString(tok.text)
		b.WriteByte('>')
	case tokString:
		rdf.WriteQuoted(b, tok.text)
	case tokLangTag:
		b.WriteByte('@')
		b.WriteString(tok.text)
	default:
		// Punctuation, operators, numbers, prefixed names and 'a' are
		// already canonical in their lexed text.
		b.WriteString(tok.text)
	}
}

// writeASCIIUpper uppercases only ASCII letters. Keywords and builtin
// function names are pure ASCII; other bytes pass through untouched so
// the rendering round-trips byte-for-byte through the byte-oriented lexer
// (strings.ToUpper would rewrite invalid UTF-8 to U+FFFD and break that).
func writeASCIIUpper(b *strings.Builder, s string) {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 'a' && c <= 'z' {
			c -= 'a' - 'A'
		}
		b.WriteByte(c)
	}
}
