// Package rdf implements the RDF data model used throughout ALEX: terms
// (IRIs, literals, blank nodes), triples, an interning dictionary that maps
// terms to dense integer ids, and N-Triples parsing and serialization.
//
// The design goal is a compact, allocation-light representation: a data set
// is a slice of [3]uint32 triple ids over a shared Dict. All higher layers
// (the triple store, the SPARQL engine, PARIS, and the ALEX feature space)
// operate on TermIDs and only materialize Term values at the edges.
package rdf

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// TermKind discriminates the three RDF term kinds plus the zero value.
type TermKind uint8

const (
	// KindInvalid is the zero TermKind; no valid term has it.
	KindInvalid TermKind = iota
	// KindIRI is an IRI reference such as <http://dbpedia.org/resource/LeBron_James>.
	KindIRI
	// KindLiteral is a literal, optionally with a datatype IRI or language tag.
	KindLiteral
	// KindBlank is a blank node label.
	KindBlank
)

func (k TermKind) String() string {
	switch k {
	case KindIRI:
		return "IRI"
	case KindLiteral:
		return "Literal"
	case KindBlank:
		return "Blank"
	default:
		return "Invalid"
	}
}

// Well-known IRIs used across the system.
const (
	RDFType    = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
	RDFSLabel  = "http://www.w3.org/2000/01/rdf-schema#label"
	OWLSameAs  = "http://www.w3.org/2002/07/owl#sameAs"
	OWLThing   = "http://www.w3.org/2002/07/owl#Thing"
	XSDString  = "http://www.w3.org/2001/XMLSchema#string"
	XSDInteger = "http://www.w3.org/2001/XMLSchema#integer"
	XSDDouble  = "http://www.w3.org/2001/XMLSchema#double"
	XSDDate    = "http://www.w3.org/2001/XMLSchema#date"
	XSDBoolean = "http://www.w3.org/2001/XMLSchema#boolean"
)

// Term is an RDF term. For IRIs, Value holds the IRI string. For blank
// nodes, Value holds the label without the "_:" prefix. For literals, Value
// holds the lexical form, Datatype optionally holds the datatype IRI, and
// Lang optionally holds the language tag (mutually exclusive with Datatype
// per the RDF spec; the parser enforces this).
type Term struct {
	Kind     TermKind
	Value    string
	Datatype string
	Lang     string
}

// NewIRI returns an IRI term.
func NewIRI(iri string) Term { return Term{Kind: KindIRI, Value: iri} }

// NewBlank returns a blank-node term with the given label (no "_:" prefix).
func NewBlank(label string) Term { return Term{Kind: KindBlank, Value: label} }

// NewString returns a plain string literal.
func NewString(s string) Term { return Term{Kind: KindLiteral, Value: s} }

// NewLangString returns a language-tagged string literal.
func NewLangString(s, lang string) Term {
	return Term{Kind: KindLiteral, Value: s, Lang: lang}
}

// NewTyped returns a literal with an explicit datatype IRI.
func NewTyped(lexical, datatype string) Term {
	return Term{Kind: KindLiteral, Value: lexical, Datatype: datatype}
}

// NewInt returns an xsd:integer literal.
func NewInt(v int64) Term {
	return Term{Kind: KindLiteral, Value: strconv.FormatInt(v, 10), Datatype: XSDInteger}
}

// NewFloat returns an xsd:double literal.
func NewFloat(v float64) Term {
	return Term{Kind: KindLiteral, Value: strconv.FormatFloat(v, 'g', -1, 64), Datatype: XSDDouble}
}

// NewDate returns an xsd:date literal in ISO-8601 form.
func NewDate(t time.Time) Term {
	return Term{Kind: KindLiteral, Value: t.Format("2006-01-02"), Datatype: XSDDate}
}

// IsIRI reports whether the term is an IRI.
func (t Term) IsIRI() bool { return t.Kind == KindIRI }

// IsLiteral reports whether the term is a literal.
func (t Term) IsLiteral() bool { return t.Kind == KindLiteral }

// IsBlank reports whether the term is a blank node.
func (t Term) IsBlank() bool { return t.Kind == KindBlank }

// IsZero reports whether the term is the zero value.
func (t Term) IsZero() bool { return t.Kind == KindInvalid }

// AsInt parses the literal as an integer. The second return is false when
// the term is not a literal or does not parse.
func (t Term) AsInt() (int64, bool) {
	if t.Kind != KindLiteral {
		return 0, false
	}
	v, err := strconv.ParseInt(strings.TrimSpace(t.Value), 10, 64)
	return v, err == nil
}

// AsFloat parses the literal as a float64.
func (t Term) AsFloat() (float64, bool) {
	if t.Kind != KindLiteral {
		return 0, false
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(t.Value), 64)
	return v, err == nil
}

// AsDate parses the literal as an ISO-8601 date (yyyy-mm-dd).
func (t Term) AsDate() (time.Time, bool) {
	if t.Kind != KindLiteral {
		return time.Time{}, false
	}
	v, err := time.Parse("2006-01-02", strings.TrimSpace(t.Value))
	return v, err == nil
}

// Equal reports exact term equality (kind, value, datatype and lang).
func (t Term) Equal(o Term) bool { return t == o }

// String renders the term in N-Triples syntax.
func (t Term) String() string {
	switch t.Kind {
	case KindIRI:
		return "<" + t.Value + ">"
	case KindBlank:
		return "_:" + t.Value
	case KindLiteral:
		var b strings.Builder
		b.Grow(len(t.Value) + len(t.Lang) + len(t.Datatype) + 6)
		WriteQuoted(&b, t.Value)
		switch {
		case t.Lang != "":
			b.WriteByte('@')
			b.WriteString(t.Lang)
		case t.Datatype != "" && t.Datatype != XSDString:
			b.WriteString("^^<")
			b.WriteString(t.Datatype)
			b.WriteByte('>')
		}
		return b.String()
	default:
		return "<invalid>"
	}
}

// Triple is a subject-predicate-object statement over materialized terms.
// It is used at API boundaries; internally triples are TripleIDs.
type Triple struct {
	S, P, O Term
}

// String renders the triple in N-Triples syntax (with trailing dot).
func (tr Triple) String() string {
	return fmt.Sprintf("%s %s %s .", tr.S, tr.P, tr.O)
}

// TermID is a dense identifier for an interned term. ID 0 is reserved and
// never assigned, so the zero value is usable as "no term".
type TermID uint32

// NoTerm is the reserved invalid TermID.
const NoTerm TermID = 0

// TripleID is a triple over interned term ids.
type TripleID struct {
	S, P, O TermID
}
