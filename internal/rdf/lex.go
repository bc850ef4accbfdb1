package rdf

import (
	"errors"
	"fmt"
	"strings"
	"unicode/utf8"
)

// The term grammar N-Triples, Turtle and SPARQL share: one scanner per W3C
// production (IRIREF, the four string literals with ECHAR and UCHAR,
// LANGTAG, BLANK_NODE_LABEL, PNAME_NS/PNAME_LN, the integer and decimal
// numbers, whitespace with '#' comments). Each reads s from byte offset i
// and returns the offset just past what it read, so a caller slices the
// term's text out of its own input without a copy. None takes a grammar
// argument: a format whose grammar lacks a production never calls its
// scanner, and rules of one format alone (N-Triples' non-empty IRI,
// Turtle's @base) stay in that format's parser. WriteQuoted is the one
// writer of string literals.

// SkipSpace returns the offset of the first byte at or after i that is
// neither whitespace (space, tab, LF, CR) nor inside a '#' comment, which
// runs to the end of its line.
func SkipSpace(s string, i int) int {
	for i < len(s) {
		switch s[i] {
		case ' ', '\t', '\n', '\r':
			i++
		case '#':
			for i < len(s) && s[i] != '\n' {
				i++
			}
		default:
			return i
		}
	}
	return i
}

// ScanIRI reads an IRIREF, <([^#x00-#x20<>"{}|^`\])*>, at s[i] == '<'.
// The IRI is s[i+1:end-1]. On an error, end is the offset just past the
// offending byte.
func ScanIRI(s string, i int) (end int, err error) {
	for j := i + 1; j < len(s); j++ {
		switch c := s[j]; {
		case c == '>':
			return j + 1, nil
		case notInIRI[c]:
			return j + 1, fmt.Errorf("invalid character %q in IRI", c)
		}
	}
	return len(s), errors.New("unterminated IRI")
}

// notInIRI marks the bytes IRIREF excludes, other than its closing '>'.
var notInIRI = func() (t [256]bool) {
	for c := 0; c <= ' '; c++ {
		t[c] = true
	}
	for _, c := range "<\"{}|^`\\" {
		t[c] = true
	}
	return t
}()

// ScanString reads a string literal at s[i], a double or single quote: the
// short form (no raw LF or CR) or, when the quote is tripled, the long
// form. It returns the decoded value, which is a substring of s when the
// literal has no escape. Escapes are ECHAR (\t \b \n \r \f \" \' \\) and
// UCHAR (\uXXXX, \UXXXXXXXX) naming a valid code point. On an error, end
// is the offset just past the offending bytes.
func ScanString(s string, i int) (val string, end int, err error) {
	q, n := s[i], 1
	if i+2 < len(s) && s[i+1] == q && s[i+2] == q {
		n = 3
	}
	var b strings.Builder // used from the first escape on
	start := i + n
	for j := start; j < len(s); {
		switch c := s[j]; {
		case c == q && (n == 1 || strings.HasPrefix(s[j:], s[i:i+3])):
			if b.Len() == 0 {
				return s[start:j], j + n, nil
			}
			b.WriteString(s[start:j])
			return b.String(), j + n, nil
		case c == '\\':
			r, w, err := unescape(s, j)
			if err != nil {
				return "", j + w, err
			}
			b.WriteString(s[start:j])
			b.WriteRune(r)
			j += w
			start = j
		case n == 1 && (c == '\n' || c == '\r'):
			return "", j + 1, errors.New("newline in short string literal")
		default:
			j++
		}
	}
	return "", len(s), errors.New("unterminated string literal")
}

// unescape decodes the ECHAR or UCHAR at s[j] == '\\' and returns the rune
// and the bytes it spans.
func unescape(s string, j int) (rune, int, error) {
	if j+1 >= len(s) {
		return 0, 1, errors.New("dangling escape")
	}
	e := s[j+1]
	if r := strings.IndexByte(`tbnrf"'\`, e); r >= 0 {
		return rune("\t\b\n\r\f\"'\\"[r]), 2, nil
	}
	digits := 0
	switch e {
	case 'u':
		digits = 4
	case 'U':
		digits = 8
	default:
		return 0, 2, fmt.Errorf("unknown escape \\%c", e)
	}
	var r rune
	for k := 0; k < digits; k++ {
		if j+2+k >= len(s) {
			return 0, 2 + k, fmt.Errorf("truncated \\%c escape", e)
		}
		d := strings.IndexByte("0123456789abcdefABCDEF", s[j+2+k])
		if d < 0 {
			return 0, 3 + k, fmt.Errorf("invalid hex digit in \\%c escape", e)
		}
		if d > 15 {
			d -= 6
		}
		r = r<<4 | rune(d)
	}
	if !utf8.ValidRune(r) {
		return 0, 2 + digits, fmt.Errorf("invalid code point in \\%c escape", e)
	}
	return r, 2 + digits, nil
}

// WriteQuoted writes v to b as a double-quoted short string literal. It
// escapes only what the grammar requires (the quote, the backslash, LF and
// CR) and tab; every other byte passes through verbatim, so values that
// are not valid UTF-8 still read back unchanged.
func WriteQuoted(b *strings.Builder, v string) {
	b.WriteByte('"')
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\r':
			b.WriteString(`\r`)
		case '\t':
			b.WriteString(`\t`)
		default:
			b.WriteByte(c)
		}
	}
	b.WriteByte('"')
}

// ScanLangTag reads a LANGTAG, '@' [a-zA-Z]+ ('-' [a-zA-Z0-9]+)*, at
// s[i] == '@'. The tag is s[i+1:end]; end == i when none follows the '@'.
// A '-' not followed by a subtag is left unread.
func ScanLangTag(s string, i int) int {
	end := i
	for j, sub := i+1, 0; ; sub++ {
		k := j
		for k < len(s) && (isASCIILetter(s[k]) || sub > 0 && isDigit(s[k])) {
			k++
		}
		if k == j {
			return end
		}
		end = k
		if k+1 >= len(s) || s[k] != '-' {
			return end
		}
		j = k + 1
	}
}

// ScanBlankLabel reads a BLANK_NODE_LABEL, "_:" (PN_CHARS_U | [0-9])
// ((PN_CHARS | '.')* PN_CHARS)?, at s[i]. The label is s[i+2:end]; end == i
// when s[i:] does not start with one. A final '.' is left unread.
func ScanBlankLabel(s string, i int) int {
	if !strings.HasPrefix(s[i:], "_:") {
		return i
	}
	if end := scanName(s, i+2, isLocalStart); end > i+2 {
		return end
	}
	return i
}

// ScanPrefixedName reads a prefixed name, PN_PREFIX? ':' PN_LOCAL?, at s[i]:
// the prefix is s[i:colon] and the local part s[colon+1:end]. end == i
// when s[i:] does not start with one. Neither part ends with '.', so a
// statement's terminating '.' is left unread.
func ScanPrefixedName(s string, i int) (colon, end int) {
	colon = scanName(s, i, isPNCharsBase)
	if colon >= len(s) || s[colon] != ':' {
		return i, i
	}
	return colon, scanName(s, colon+1, isLocalStart)
}

// ScanNumber reads an INTEGER or DECIMAL, [+-]?[0-9]+ ('.' [0-9]+)?, at
// s[i]; end == i when s[i:] does not start with one. A '.' not followed by
// a digit is left unread.
func ScanNumber(s string, i int) int {
	j := i
	if j < len(s) && (s[j] == '+' || s[j] == '-') {
		j++
	}
	end := skipDigits(s, j)
	if end == j {
		return i
	}
	if end+1 < len(s) && s[end] == '.' && isDigit(s[end+1]) {
		end = skipDigits(s, end+1)
	}
	return end
}

func skipDigits(s string, i int) int {
	for i < len(s) && isDigit(s[i]) {
		i++
	}
	return i
}

func isDigit(c byte) bool       { return c >= '0' && c <= '9' }
func isASCIILetter(c byte) bool { return c|0x20 >= 'a' && c|0x20 <= 'z' }

// scanName reads first ((PN_CHARS | '.')* PN_CHARS)? at s[i], where first
// is a rune first accepts; it returns i when there is none. A final run of
// '.' is left unread.
func scanName(s string, i int, first func(rune) bool) int {
	if i >= len(s) {
		return i
	}
	r, n := nameRune(s, i)
	if !first(r) {
		return i
	}
	end := i + n
	for j := end; j < len(s); j += n {
		r, n = nameRune(s, j)
		if r == '.' {
			continue
		}
		if !isPNChars(r) {
			break
		}
		end = j + n
	}
	return end
}

// nameRune decodes the rune at s[j], or -1, which no name admits, for a
// byte that is not valid UTF-8.
func nameRune(s string, j int) (rune, int) {
	if c := s[j]; c < utf8.RuneSelf {
		return rune(c), 1
	}
	r, n := utf8.DecodeRuneInString(s[j:])
	if r == utf8.RuneError && n == 1 {
		return -1, 1
	}
	return r, n
}

// isPNCharsBase is PN_CHARS_BASE.
func isPNCharsBase(r rune) bool {
	switch {
	case r < 0x80:
		return isASCIILetter(byte(r))
	case r <= 0x02FF:
		return r >= 0xC0 && r != 0xD7 && r != 0xF7
	case r <= 0x1FFF:
		return r >= 0x0370 && r != 0x037E
	case r <= 0x2FEF:
		return r == 0x200C || r == 0x200D || r >= 0x2070 && r <= 0x218F || r >= 0x2C00
	default:
		return r >= 0x3001 && r <= 0xD7FF || r >= 0xF900 && r <= 0xFDCF ||
			r >= 0xFDF0 && r <= 0xFFFD || r >= 0x10000 && r <= 0xEFFFF
	}
}

// isLocalStart is the first rune of PN_LOCAL and BLANK_NODE_LABEL:
// PN_CHARS_U or a digit.
func isLocalStart(r rune) bool {
	return isPNCharsBase(r) || r == '_' || r >= '0' && r <= '9'
}

// isPNChars is PN_CHARS.
func isPNChars(r rune) bool {
	return isLocalStart(r) || r == '-' || r == 0xB7 ||
		r >= 0x0300 && r <= 0x036F || r == 0x203F || r == 0x2040
}
