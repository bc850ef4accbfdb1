package sim

import (
	"math"
	"strconv"
	"strings"
	"time"

	"alex/internal/rdf"
)

// ValueType classifies a literal's lexical form for metric dispatch.
type ValueType uint8

const (
	// TypeString is the fallback for free text.
	TypeString ValueType = iota
	// TypeInt is an integer lexical form.
	TypeInt
	// TypeFloat is a non-integer numeric lexical form.
	TypeFloat
	// TypeDate is an ISO-8601 date (yyyy-mm-dd).
	TypeDate
	// TypeIRI is a resource reference.
	TypeIRI
)

func (v ValueType) String() string {
	switch v {
	case TypeInt:
		return "int"
	case TypeFloat:
		return "float"
	case TypeDate:
		return "date"
	case TypeIRI:
		return "iri"
	default:
		return "string"
	}
}

// Infer classifies a term. Datatyped literals are classified by datatype;
// plain literals by their lexical form.
func Infer(t rdf.Term) ValueType {
	switch t.Kind {
	case rdf.KindIRI, rdf.KindBlank:
		return TypeIRI
	case rdf.KindLiteral:
		switch t.Datatype {
		case rdf.XSDInteger:
			return TypeInt
		case rdf.XSDDouble:
			return TypeFloat
		case rdf.XSDDate:
			return TypeDate
		}
		v := strings.TrimSpace(t.Value)
		// A number starts with a sign, a digit or a point, a date with a
		// digit; ParseFloat's words (NaN, Inf) are not numbers here either.
		// Answering the rest first spares them the parsers' errors.
		if v == "" || !startsNumber(v[0]) {
			return TypeString
		}
		if _, err := strconv.ParseInt(v, 10, 64); err == nil {
			return TypeInt
		}
		// ParseFloat also accepts "NaN", "Inf" and "Infinity" in any case;
		// those are words, not measurements, and compare as strings.
		if f, err := strconv.ParseFloat(v, 64); err == nil && finite(f) {
			return TypeFloat
		}
		if _, err := time.Parse("2006-01-02", v); err == nil {
			return TypeDate
		}
		return TypeString
	default:
		return TypeString
	}
}

func startsNumber(c byte) bool { return c >= '0' && c <= '9' || c == '+' || c == '-' || c == '.' }

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// NumericSim returns a relative-difference similarity for two numbers:
// 1 - |a-b| / max(|a|, |b|), floored at 0. Equal values (including 0, 0)
// score 1.
func NumericSim(a, b float64) float64 {
	if a == b {
		return 1
	}
	den := math.Max(math.Abs(a), math.Abs(b))
	if den == 0 {
		return 1
	}
	s := 1 - math.Abs(a-b)/den
	if s < 0 {
		return 0
	}
	return s
}

// DateSimWindow is the day span over which date similarity decays linearly
// to zero.
const DateSimWindow = 365.0

// DateSim decays linearly with the day difference: same day scores 1, a
// difference of DateSimWindow days or more scores 0.
func DateSim(a, b time.Time) float64 {
	days := math.Abs(a.Sub(b).Hours() / 24)
	if days >= DateSimWindow {
		return 0
	}
	return 1 - days/DateSimWindow
}

// YearSimWindow is the year span over which year similarity decays
// linearly to zero.
const YearSimWindow = 25.0

// YearSim compares two calendar years: equal years score 1, a gap of
// YearSimWindow years or more scores 0. Relative numeric difference is the
// wrong metric for years (1984 vs 1988 would score 0.998); a linear decay
// over a human-scale window keeps the feature discriminative.
func YearSim(a, b int64) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	if float64(d) >= YearSimWindow {
		return 0
	}
	return 1 - float64(d)/YearSimWindow
}

// isYear reports whether an integer plausibly denotes a calendar year.
func isYear(v int64) bool { return v >= 1000 && v <= 2200 }

// iriLocalName extracts the fragment or last path segment of an IRI.
func iriLocalName(iri string) string {
	if i := strings.LastIndexByte(iri, '#'); i >= 0 && i+1 < len(iri) {
		return iri[i+1:]
	}
	if i := strings.LastIndexByte(iri, '/'); i >= 0 && i+1 < len(iri) {
		return iri[i+1:]
	}
	return iri
}

// IRISim compares two IRIs by exact match, then by the string similarity of
// their local names with underscores treated as spaces.
func IRISim(a, b string) float64 {
	if a == b {
		return 1
	}
	la, lb := newText(iriLocalText(a)), newText(iriLocalText(b))
	var sc Scratch
	return iriSim(&la, &lb, &sc)
}

// iriLocalText is the text IRIs are compared by: the local name with
// underscores as spaces.
func iriLocalText(iri string) string {
	return strings.ReplaceAll(iriLocalName(iri), "_", " ")
}

// iriSim is IRISim over the local-name texts of two distinct IRIs. They
// never score a perfect 1 even with equal local names: different
// namespaces may reuse names for different resources.
func iriSim(la, lb *text, sc *Scratch) float64 {
	s := stringSim(la, lb, sc)
	if s > 0.99 {
		s = 0.99
	}
	return s
}

// Profile is everything Generic derives from one term alone — its inferred
// type, its parsed value, and its lexical form prepared for the string
// kernels — computed once so that scoring a term against many others
// re-derives nothing. A Profile is immutable and safe to share between
// goroutines.
type Profile struct {
	// Type is Infer's classification of the term.
	Type  ValueType
	value string // Term.Value: IRI identity

	// The parsed value, by Type: i and f for TypeInt, f for TypeFloat, date
	// for TypeDate. An ok flag is false when the lexical form does not
	// parse (a datatype can promise more than the lexical form holds) or,
	// for f, is not finite; such a term compares as a string.
	i             int64
	f             float64
	date          time.Time
	okI, okF, okD bool

	lower text // the lower-cased lexical form, for the string fallback
	local text // TypeIRI only: the local name, for IRI-to-IRI comparison
}

// NewProfile derives a term's profile.
func NewProfile(t rdf.Term) *Profile {
	p := &Profile{Type: Infer(t), value: t.Value, lower: newText(strings.ToLower(t.Value))}
	switch p.Type {
	case TypeIRI:
		p.local = newText(iriLocalText(t.Value))
	case TypeInt:
		p.i, p.okI = t.AsInt()
		p.f, p.okF = t.AsFloat()
	case TypeFloat:
		p.f, p.okF = t.AsFloat()
	case TypeDate:
		p.date, p.okD = t.AsDate()
	}
	p.okF = p.okF && finite(p.f)
	return p
}

// Int returns the value of a TypeInt term; ok is false for any other type
// or an unparsable lexical form.
func (p *Profile) Int() (v int64, ok bool) { return p.i, p.okI }

// Float returns the finite value of a TypeInt or TypeFloat term.
func (p *Profile) Float() (v float64, ok bool) { return p.f, p.okF }

// Year returns the calendar year of a TypeDate term.
func (p *Profile) Year() (y int, ok bool) { return p.date.Year(), p.okD }

// Tokens returns the sorted, de-duplicated lower-case word tokens of the
// term's lexical form. The slice is shared: callers must not modify it.
func (p *Profile) Tokens() []string { return p.lower.tokens }

// Generic is the paper's type-dispatched similarity: it infers the types of
// both values and applies the matching metric. Mixed types that are both
// numeric compare numerically; a date and a bare year compare by year;
// anything else falls back to string similarity over lexical forms.
func Generic(a, b rdf.Term) float64 {
	var sc Scratch
	return NewProfile(a).Sim(NewProfile(b), &sc)
}

// Sim is Generic over two profiles, with the kernels' buffers supplied by
// the caller: Generic(a, b) == NewProfile(a).Sim(NewProfile(b), sc), bit
// for bit.
func (p *Profile) Sim(q *Profile, sc *Scratch) float64 {
	tp, tq := p.Type, q.Type
	switch {
	case tp == TypeIRI && tq == TypeIRI:
		if p.value == q.value {
			return 1
		}
		return iriSim(&p.local, &q.local, sc)
	case (tp == TypeInt || tp == TypeFloat) && (tq == TypeInt || tq == TypeFloat):
		if p.okI && q.okI && isYear(p.i) && isYear(q.i) {
			return YearSim(p.i, q.i)
		}
		if p.okF && q.okF {
			return NumericSim(p.f, q.f)
		}
	case tp == TypeDate && tq == TypeDate:
		if p.okD && q.okD {
			return DateSim(p.date, q.date)
		}
	case tp == TypeDate && tq == TypeInt:
		return dateYearSim(p, q)
	case tp == TypeInt && tq == TypeDate:
		return dateYearSim(q, p)
	}
	return stringSim(&p.lower, &q.lower, sc)
}

// dateYearSim compares a date against a bare integer year.
func dateYearSim(date, year *Profile) float64 {
	if !date.okD || !year.okI {
		return 0
	}
	return YearSim(int64(date.date.Year()), year.i)
}
