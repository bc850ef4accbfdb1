package endpoint

import (
	"net/http"
	"slices"
	"strings"
	"sync"
	"unicode/utf8"

	"alex/internal/rdf"
	"alex/internal/sparql"
)

// This file writes SELECT and ASK replies: W3C results JSON appended
// straight from the evaluator's id rows, each term decoded through its id
// space, into a pooled buffer, and handed to the connection in one Write.
// The bytes are those encoding/json produces for a document of
// map[string]term rows with HTML escaping off (wire.golden holds them): a
// row's variables in byte order of their names, unbound ones left out,
// "xml:lang" and "datatype" only when set, one trailing newline.

// wireBufs recycles reply buffers. A reply larger than maxPooledReply is
// not kept: one huge answer must not pin its buffer for the process's life.
var wireBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledReply = 1 << 20

// writeResults encodes a SELECT or ASK result and writes it to w. A SELECT
// result without id rows — one no evaluation produced — has no solutions.
func writeResults(w http.ResponseWriter, res *Result) {
	bp := wireBufs.Get().(*[]byte)
	b := (*bp)[:0]
	if res.IsAsk {
		b = append(b, `{"head":{},"boolean":`...)
		if res.Boolean {
			b = append(b, "true}\n"...)
		} else {
			b = append(b, "false}\n"...)
		}
	} else {
		b = appendSlotRows(appendHead(b, res.Vars), res.slots)
	}
	_, _ = w.Write(b) // a failed write is the client's disconnect
	if cap(b) <= maxPooledReply {
		*bp = b
		wireBufs.Put(bp)
	}
}

// appendHead opens the document up to the first row.
func appendHead(b []byte, vars []string) []byte {
	b = append(b, `{"head":{`...)
	if len(vars) > 0 {
		b = append(b, `"vars":[`...)
		for i, v := range vars {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(b, v)
		}
		b = append(b, ']')
	}
	return append(b, `},"results":{"bindings":[`...)
}

const wireTail = "]}}\n"

// appendSlotRows encodes id rows. The emission order of a row's columns
// is computed once for the result: sorted by name, a name projected twice
// (one slot, hence one value) emitted once. Every column is emitted, so an
// aggregate's grouping variable rides along in its rows beside the head's
// vars.
func appendSlotRows(b []byte, sr *sparql.SlotResult) []byte {
	if sr == nil {
		return append(b, wireTail...)
	}
	names := sr.RowVars()
	cols := make([]int, len(names))
	for j := range cols {
		cols[j] = j
	}
	slices.SortStableFunc(cols, func(x, y int) int { return strings.Compare(names[x], names[y]) })
	cols = slices.CompactFunc(cols, func(x, y int) bool { return names[x] == names[y] })
	for i, n := 0, sr.Len(); i < n; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '{')
		first := true
		for _, j := range cols {
			t, ok := sr.Term(i, j)
			if !ok {
				continue
			}
			if !first {
				b = append(b, ',')
			}
			first = false
			b = appendString(b, names[j])
			b = append(b, ':')
			b = appendTerm(b, t)
		}
		b = append(b, '}')
	}
	return append(b, wireTail...)
}

// appendTerm encodes one RDF term object; decodeTerm is its inverse.
func appendTerm(b []byte, t rdf.Term) []byte {
	switch t.Kind {
	case rdf.KindIRI:
		b = append(b, `{"type":"uri","value":`...)
		b = appendString(b, t.Value)
	case rdf.KindBlank:
		b = append(b, `{"type":"bnode","value":`...)
		b = appendString(b, t.Value)
	default:
		b = append(b, `{"type":"literal","value":`...)
		b = appendString(b, t.Value)
		if t.Lang != "" {
			b = append(b, `,"xml:lang":`...)
			b = appendString(b, t.Lang)
		}
		if t.Datatype != "" {
			b = append(b, `,"datatype":`...)
			b = appendString(b, t.Datatype)
		}
	}
	return append(b, '}')
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string exactly as encoding/json does
// with SetEscapeHTML(false): the two-character escapes for quote,
// backslash, \b, \f, \n, \r and \t, \u00XX for the other control
// characters, \ufffd for each byte of invalid UTF-8, and \u2028 / \u2029
// (valid JSON, but line terminators to a JavaScript consumer).
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, `\u202`...)
			b = append(b, hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
