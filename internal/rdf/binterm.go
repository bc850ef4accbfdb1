package rdf

import (
	"encoding/binary"
	"fmt"
)

// Binary term codec shared by the store's snapshot and WAL formats. The
// encoding is a kind byte followed by uvarint-length-prefixed fields:
// Value always, Datatype and Lang only for literals. It is also the
// dictionary's key for a term.
// It is self-contained — no dictionary required to decode — so a WAL
// record can be replayed into any dict and a snapshot's dict block can be
// interned into any dict. Each term has exactly one encoding: the decoder
// rejects a padded length prefix.

// maxTermFieldBytes bounds any single decoded field so a corrupt length
// prefix cannot drive a huge allocation.
const maxTermFieldBytes = 1 << 28

// AppendTermBinary appends the binary encoding of t to buf and returns
// the extended slice.
func AppendTermBinary(buf []byte, t Term) []byte {
	buf = append(buf, byte(t.Kind))
	buf = appendBinField(buf, t.Value)
	if t.Kind == KindLiteral {
		buf = appendBinField(buf, t.Datatype)
		buf = appendBinField(buf, t.Lang)
	}
	return buf
}

func appendBinField(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// DecodeTermBinary decodes one term from the front of b and returns it
// together with the number of bytes consumed. Truncated or malformed
// input returns an error, never a panic. Field strings are copied out of
// b, so the buffer may be reused after the call.
func DecodeTermBinary(b []byte) (Term, int, error) {
	return decodeTermAny(b)
}

// binInput abstracts the two decode inputs: converting a slice of a
// string-typed T to string is free (shared backing), of a []byte-typed T
// a copy — the same code gives zero-copy decoding for Dict.InternEncoded
// and owned-copy decoding for DecodeTermBinary.
type binInput interface{ ~[]byte | ~string }

func decodeTermAny[T binInput](b T) (Term, int, error) {
	if len(b) == 0 {
		return Term{}, 0, fmt.Errorf("rdf: decode term: empty input")
	}
	kind := TermKind(b[0])
	if kind != KindIRI && kind != KindLiteral && kind != KindBlank {
		return Term{}, 0, fmt.Errorf("rdf: decode term: invalid kind %d", b[0])
	}
	n := 1
	value, adv, err := decodeBinFieldAny(b[n:])
	if err != nil {
		return Term{}, 0, fmt.Errorf("rdf: decode term value: %w", err)
	}
	n += adv
	t := Term{Kind: kind, Value: value}
	if kind == KindLiteral {
		t.Datatype, adv, err = decodeBinFieldAny(b[n:])
		if err != nil {
			return Term{}, 0, fmt.Errorf("rdf: decode term datatype: %w", err)
		}
		n += adv
		t.Lang, adv, err = decodeBinFieldAny(b[n:])
		if err != nil {
			return Term{}, 0, fmt.Errorf("rdf: decode term lang: %w", err)
		}
		n += adv
	}
	return t, n, nil
}

func decodeBinFieldAny[T binInput](b T) (string, int, error) {
	l, adv := uvarintAny(b)
	if adv <= 0 {
		return "", 0, fmt.Errorf("truncated length prefix")
	}
	if adv > 1 && b[adv-1] == 0 {
		// A padded prefix decodes to the same term under other bytes, and
		// Dict.InternEncoded keys terms by their bytes.
		return "", 0, fmt.Errorf("length prefix not minimally encoded")
	}
	if l > maxTermFieldBytes {
		return "", 0, fmt.Errorf("field length %d exceeds limit", l)
	}
	if uint64(len(b)-adv) < l {
		return "", 0, fmt.Errorf("field truncated: need %d bytes, have %d", l, len(b)-adv)
	}
	return string(b[adv : adv+int(l)]), adv + int(l), nil
}

// uvarintAny is binary.Uvarint over either input type, with the same
// return convention: (0, 0) on truncation, (0, -n) on overflow.
func uvarintAny[T binInput](b T) (uint64, int) {
	var x uint64
	var s uint
	for i := 0; i < len(b); i++ {
		c := b[i]
		if c < 0x80 {
			if i > 9 || i == 9 && c > 1 {
				return 0, -(i + 1)
			}
			return x | uint64(c)<<s, i + 1
		}
		x |= uint64(c&0x7f) << s
		s += 7
	}
	return 0, 0
}
