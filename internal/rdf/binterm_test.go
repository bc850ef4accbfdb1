package rdf

import (
	"strings"
	"testing"
)

func TestTermBinaryRoundTrip(t *testing.T) {
	terms := []Term{
		{Kind: KindIRI, Value: "http://example.org/a"},
		{Kind: KindIRI, Value: ""},
		{Kind: KindBlank, Value: "b0"},
		{Kind: KindLiteral, Value: "plain"},
		{Kind: KindLiteral, Value: "42", Datatype: XSDInteger},
		{Kind: KindLiteral, Value: "chat", Lang: "fr"},
		{Kind: KindLiteral, Value: strings.Repeat("x", 5000), Datatype: "http://x/dt", Lang: "en-GB"},
		{Kind: KindLiteral, Value: "quote \" backslash \\ newline \n tab \t"},
	}
	var buf []byte
	for _, tm := range terms {
		buf = AppendTermBinary(buf, tm)
	}
	off := 0
	for i, want := range terms {
		got, n, err := DecodeTermBinary(buf[off:])
		if err != nil {
			t.Fatalf("term %d: decode: %v", i, err)
		}
		if got != want {
			t.Fatalf("term %d: got %+v, want %+v", i, got, want)
		}
		off += n
	}
	if off != len(buf) {
		t.Fatalf("consumed %d of %d bytes", off, len(buf))
	}
}

func TestTermBinaryDecodeErrors(t *testing.T) {
	good := AppendTermBinary(nil, Term{Kind: KindLiteral, Value: "v", Datatype: "http://x/dt", Lang: "en"})
	// Every strict prefix of a valid encoding must fail cleanly.
	for i := 0; i < len(good); i++ {
		if _, _, err := DecodeTermBinary(good[:i]); err == nil {
			t.Fatalf("prefix of %d bytes: want error, got none", i)
		}
	}
	cases := map[string][]byte{
		"invalid kind zero": {0x00, 0x01, 'a'},
		"invalid kind high": {0x09, 0x01, 'a'},
		"huge length":       {byte(KindIRI), 0xff, 0xff, 0xff, 0xff, 0x7f},
		"length past end":   {byte(KindIRI), 0x20, 'a'},
		"padded length":     {byte(KindIRI), 0x81, 0x00, 'a'},
	}
	for name, in := range cases {
		if _, _, err := DecodeTermBinary(in); err == nil {
			t.Errorf("%s: want error, got none", name)
		}
	}
}
