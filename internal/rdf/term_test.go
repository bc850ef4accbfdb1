package rdf

import (
	"testing"
	"testing/quick"
	"time"
)

func TestTermConstructors(t *testing.T) {
	tests := []struct {
		name string
		term Term
		kind TermKind
		val  string
	}{
		{"iri", NewIRI("http://example.org/a"), KindIRI, "http://example.org/a"},
		{"blank", NewBlank("b1"), KindBlank, "b1"},
		{"string", NewString("hello"), KindLiteral, "hello"},
		{"lang", NewLangString("bonjour", "fr"), KindLiteral, "bonjour"},
		{"typed", NewTyped("5", XSDInteger), KindLiteral, "5"},
		{"int", NewInt(42), KindLiteral, "42"},
		{"float", NewFloat(2.5), KindLiteral, "2.5"},
		{"date", NewDate(time.Date(1984, 12, 30, 0, 0, 0, 0, time.UTC)), KindLiteral, "1984-12-30"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if tt.term.Kind != tt.kind {
				t.Errorf("kind = %v, want %v", tt.term.Kind, tt.kind)
			}
			if tt.term.Value != tt.val {
				t.Errorf("value = %q, want %q", tt.term.Value, tt.val)
			}
		})
	}
}

func TestTermKindPredicates(t *testing.T) {
	iri := NewIRI("http://x")
	lit := NewString("x")
	bl := NewBlank("x")
	var zero Term
	if !iri.IsIRI() || iri.IsLiteral() || iri.IsBlank() {
		t.Error("IRI predicates wrong")
	}
	if !lit.IsLiteral() || lit.IsIRI() || lit.IsBlank() {
		t.Error("literal predicates wrong")
	}
	if !bl.IsBlank() || bl.IsIRI() || bl.IsLiteral() {
		t.Error("blank predicates wrong")
	}
	if !zero.IsZero() || iri.IsZero() {
		t.Error("IsZero wrong")
	}
}

func TestTermKindString(t *testing.T) {
	if KindIRI.String() != "IRI" || KindLiteral.String() != "Literal" ||
		KindBlank.String() != "Blank" || KindInvalid.String() != "Invalid" {
		t.Error("TermKind.String mismatch")
	}
}

func TestTermAsInt(t *testing.T) {
	if v, ok := NewInt(-17).AsInt(); !ok || v != -17 {
		t.Errorf("AsInt = %d, %v", v, ok)
	}
	if _, ok := NewString("abc").AsInt(); ok {
		t.Error("non-numeric literal parsed as int")
	}
	if _, ok := NewIRI("http://x").AsInt(); ok {
		t.Error("IRI parsed as int")
	}
	if v, ok := NewString(" 7 ").AsInt(); !ok || v != 7 {
		t.Error("whitespace-trimmed int should parse")
	}
}

func TestTermAsFloat(t *testing.T) {
	if v, ok := NewFloat(3.25).AsFloat(); !ok || v != 3.25 {
		t.Errorf("AsFloat = %g, %v", v, ok)
	}
	if v, ok := NewInt(4).AsFloat(); !ok || v != 4 {
		t.Error("integer literal should parse as float")
	}
	if _, ok := NewString("x").AsFloat(); ok {
		t.Error("non-numeric parsed as float")
	}
}

func TestTermAsDate(t *testing.T) {
	d := time.Date(2013, 6, 1, 0, 0, 0, 0, time.UTC)
	if v, ok := NewDate(d).AsDate(); !ok || !v.Equal(d) {
		t.Errorf("AsDate = %v, %v", v, ok)
	}
	if _, ok := NewString("not-a-date").AsDate(); ok {
		t.Error("junk parsed as date")
	}
}

func TestTermString(t *testing.T) {
	tests := []struct {
		term Term
		want string
	}{
		{NewIRI("http://x/a"), "<http://x/a>"},
		{NewBlank("b"), "_:b"},
		{NewString("hi"), `"hi"`},
		{NewLangString("hi", "en"), `"hi"@en`},
		{NewTyped("5", XSDInteger), `"5"^^<` + XSDInteger + `>`},
		{NewTyped("s", XSDString), `"s"`}, // xsd:string is the implicit default
		{NewString("a\"b\n"), `"a\"b\n"`},
		{Term{}, "<invalid>"},
	}
	for _, tt := range tests {
		if got := tt.term.String(); got != tt.want {
			t.Errorf("String() = %s, want %s", got, tt.want)
		}
	}
}

func TestTripleString(t *testing.T) {
	tr := Triple{NewIRI("http://x/s"), NewIRI("http://x/p"), NewString("o")}
	want := `<http://x/s> <http://x/p> "o" .`
	if got := tr.String(); got != want {
		t.Errorf("Triple.String() = %s, want %s", got, want)
	}
}

func TestTermKeyUniqueness(t *testing.T) {
	// Terms that share value strings but differ in kind/datatype/lang must
	// have distinct intern keys.
	terms := []Term{
		NewIRI("x"),
		NewString("x"),
		NewBlank("x"),
		NewLangString("x", "en"),
		NewLangString("x", "fr"),
		NewTyped("x", XSDInteger),
		NewTyped("x", XSDDouble),
	}
	seen := map[string]Term{}
	for _, tm := range terms {
		k := termKey(tm)
		if prev, dup := seen[k]; dup {
			t.Errorf("key collision between %v and %v", prev, tm)
		}
		seen[k] = tm
	}
}

// termKey is a term's intern key: its binary encoding.
func termKey(t Term) string { return string(AppendTermBinary(nil, t)) }

func TestTermKeyInjective(t *testing.T) {
	// Property: distinct terms yield distinct keys.
	f := func(v1, v2, dt1, dt2 string) bool {
		a := Term{Kind: KindLiteral, Value: v1, Datatype: dt1}
		b := Term{Kind: KindLiteral, Value: v2, Datatype: dt2}
		if a == b {
			return termKey(a) == termKey(b)
		}
		return termKey(a) != termKey(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}
