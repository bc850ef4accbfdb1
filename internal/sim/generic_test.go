package sim

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"alex/internal/rdf"
)

func TestInfer(t *testing.T) {
	tests := []struct {
		term rdf.Term
		want ValueType
	}{
		{rdf.NewIRI("http://x/a"), TypeIRI},
		{rdf.NewBlank("b"), TypeIRI},
		{rdf.NewInt(5), TypeInt},
		{rdf.NewFloat(2.5), TypeFloat},
		{rdf.NewDate(time.Date(2013, 1, 1, 0, 0, 0, 0, time.UTC)), TypeDate},
		{rdf.NewString("42"), TypeInt},
		{rdf.NewString("3.25"), TypeFloat},
		{rdf.NewString("1984-12-30"), TypeDate},
		{rdf.NewString("hello world"), TypeString},
		{rdf.NewString(""), TypeString},
		{rdf.NewLangString("bonjour", "fr"), TypeString},
		// Spellings strconv.ParseFloat accepts that are not finite numbers.
		{rdf.NewString("NaN"), TypeString},
		{rdf.NewString("nan"), TypeString},
		{rdf.NewString("Inf"), TypeString},
		{rdf.NewString("-inf"), TypeString},
		{rdf.NewString("+Infinity"), TypeString},
		{rdf.NewString("INFINITY"), TypeString},
		{rdf.NewString("1e999"), TypeString}, // out of range
		{rdf.NewString("1e300"), TypeFloat},
	}
	for _, tt := range tests {
		if got := Infer(tt.term); got != tt.want {
			t.Errorf("Infer(%v) = %v, want %v", tt.term, got, tt.want)
		}
	}
}

func TestValueTypeString(t *testing.T) {
	names := map[ValueType]string{
		TypeString: "string", TypeInt: "int", TypeFloat: "float",
		TypeDate: "date", TypeIRI: "iri",
	}
	for vt, want := range names {
		if vt.String() != want {
			t.Errorf("%d.String() = %q, want %q", vt, vt.String(), want)
		}
	}
}

func TestNumericSim(t *testing.T) {
	tests := []struct {
		a, b, want float64
	}{
		{0, 0, 1},
		{5, 5, 1},
		{10, 5, 0.5},
		{5, 10, 0.5},
		{-5, 5, 0},
		{100, 99, 0.99},
		{1, 1000, 1.0 / 1000},
	}
	for _, tt := range tests {
		if got := NumericSim(tt.a, tt.b); !almostEq(got, tt.want) {
			t.Errorf("NumericSim(%g,%g) = %g, want %g", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestDateSim(t *testing.T) {
	base := time.Date(2013, 6, 1, 0, 0, 0, 0, time.UTC)
	if got := DateSim(base, base); got != 1 {
		t.Errorf("same day = %g", got)
	}
	halfYear := base.AddDate(0, 0, 182)
	got := DateSim(base, halfYear)
	if got < 0.4 || got > 0.6 {
		t.Errorf("half-window = %g, want ~0.5", got)
	}
	twoYears := base.AddDate(2, 0, 0)
	if got := DateSim(base, twoYears); got != 0 {
		t.Errorf("beyond window = %g, want 0", got)
	}
	if DateSim(base, halfYear) != DateSim(halfYear, base) {
		t.Error("DateSim not symmetric")
	}
}

func TestIRISim(t *testing.T) {
	if got := IRISim("http://x/a", "http://x/a"); got != 1 {
		t.Errorf("identical IRIs = %g", got)
	}
	got := IRISim("http://dbpedia.org/resource/LeBron_James", "http://cyc.org/concept/LeBron_James")
	if got < 0.9 || got >= 1 {
		t.Errorf("same local name, different namespace = %g, want in [0.9, 1)", got)
	}
	if got := IRISim("http://x#Alpha", "http://y/Alpha"); got < 0.9 {
		t.Errorf("fragment vs path local name = %g", got)
	}
	low := IRISim("http://x/Apple", "http://x/Zebra")
	if low > 0.6 {
		t.Errorf("unrelated local names = %g, want low", low)
	}
}

func TestGenericDispatch(t *testing.T) {
	d1 := rdf.NewDate(time.Date(1984, 12, 30, 0, 0, 0, 0, time.UTC))
	tests := []struct {
		name string
		a, b rdf.Term
		want float64
		tol  float64
	}{
		{"iri-iri exact-localname", rdf.NewIRI("http://a/X_Y"), rdf.NewIRI("http://b/X_Y"), 0.99, 1e-9},
		{"int-int", rdf.NewInt(10), rdf.NewInt(5), 0.5, 1e-9},
		{"int-float", rdf.NewInt(10), rdf.NewFloat(10), 1, 1e-9},
		{"plain numeric strings", rdf.NewString("10"), rdf.NewString("5"), 0.5, 1e-9},
		{"date-date same", d1, d1, 1, 1e-9},
		{"date-year match", d1, rdf.NewInt(1984), 1, 1e-9},
		{"year-date match", rdf.NewInt(1984), d1, 1, 1e-9},
		{"string-string", rdf.NewString("abc"), rdf.NewString("abc"), 1, 1e-9},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Generic(tt.a, tt.b); math.Abs(got-tt.want) > tt.tol {
				t.Errorf("Generic = %g, want %g", got, tt.want)
			}
		})
	}
}

func TestGenericCaseInsensitiveStrings(t *testing.T) {
	if got := Generic(rdf.NewString("LeBron James"), rdf.NewString("lebron james")); got != 1 {
		t.Errorf("case-insensitive match = %g, want 1", got)
	}
}

func TestGenericProperties(t *testing.T) {
	// Range and symmetry over arbitrary literal pairs.
	prop := func(a, b string) bool {
		if len(a) > 48 {
			a = a[:48]
		}
		if len(b) > 48 {
			b = b[:48]
		}
		ta, tb := rdf.NewString(a), rdf.NewString(b)
		ab, ba := Generic(ta, tb), Generic(tb, ta)
		return ab >= 0 && ab <= 1 && math.Abs(ab-ba) < 1e-9 && Generic(ta, ta) == 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestNumericSimProperties(t *testing.T) {
	prop := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		s := NumericSim(a, b)
		return s >= 0 && s <= 1 && almostEq(s, NumericSim(b, a)) && NumericSim(a, a) == 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestYearSim(t *testing.T) {
	if YearSim(1984, 1984) != 1 {
		t.Error("same year != 1")
	}
	if got := YearSim(1984, 1988); got < 0.8 || got >= 1 {
		t.Errorf("4-year gap = %g, want in [0.8, 1)", got)
	}
	if YearSim(1900, 1990) != 0 {
		t.Error("90-year gap != 0")
	}
	if YearSim(1984, 1988) != YearSim(1988, 1984) {
		t.Error("YearSim not symmetric")
	}
}

func TestGenericYearVsYear(t *testing.T) {
	// Two bare years should use YearSim, not relative numeric difference.
	got := Generic(rdf.NewInt(1984), rdf.NewInt(1988))
	if got > 0.9 {
		t.Errorf("Generic(1984, 1988) = %g, want discriminative (< 0.9)", got)
	}
	// Non-year integers keep relative difference.
	if got := Generic(rdf.NewInt(100), rdf.NewInt(99)); got != 0.99 {
		t.Errorf("Generic(100, 99) = %g, want 0.99", got)
	}
}

// TestNonFiniteNumbersAreStrings: "NaN" and "Infinity" parse as floats but
// are words. They used to classify as TypeFloat, which made Generic return
// NaN — a score that every comparison silently drops.
func TestNonFiniteNumbersAreStrings(t *testing.T) {
	tests := []struct {
		name string
		a, b rdf.Term
		want float64
	}{
		{"nan-nan", rdf.NewString("Nan"), rdf.NewString("Nan"), 1},
		{"nan-NaN", rdf.NewString("nan"), rdf.NewString("NaN"), 1},
		{"inf-inf", rdf.NewString("Infinity"), rdf.NewString("Infinity"), 1},
		{"infinity-number", rdf.NewString("Infinity"), rdf.NewString("12"), 0},
		{"number-inf", rdf.NewString("12"), rdf.NewString("-Inf"), 0},
		{"typed NaN", rdf.NewTyped("NaN", rdf.XSDDouble), rdf.NewTyped("NaN", rdf.XSDDouble), 1},
		{"typed INF-number", rdf.NewTyped("INF", rdf.XSDDouble), rdf.NewFloat(12), 0},
		{"typed INF-INF", rdf.NewTyped("INF", rdf.XSDDouble), rdf.NewTyped("-INF", rdf.XSDDouble), StringSim("inf", "-inf")},
		{"typed integer NaN", rdf.NewTyped("NaN", rdf.XSDInteger), rdf.NewInt(3), 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Generic(tt.a, tt.b); got != tt.want {
				t.Errorf("Generic(%v, %v) = %g, want %g", tt.a, tt.b, got, tt.want)
			}
		})
	}
}

// fuzzTerm builds a term of the given shape from fuzz input.
func fuzzTerm(kind uint8, value string) rdf.Term {
	switch kind % 8 {
	case 0:
		return rdf.NewIRI(value)
	case 1:
		return rdf.NewBlank(value)
	case 2:
		return rdf.NewTyped(value, rdf.XSDInteger)
	case 3:
		return rdf.NewTyped(value, rdf.XSDDouble)
	case 4:
		return rdf.NewTyped(value, rdf.XSDDate)
	case 5:
		return rdf.NewLangString(value, "en")
	default:
		return rdf.NewString(value)
	}
}

// metricSymmetric reports whether Generic dispatches the pair to a metric
// that is symmetric by construction: anything but the string fallback and
// IRI local names, which go through Jaro.
func metricSymmetric(p, q *Profile) bool {
	num := func(p *Profile) bool { return p.Type == TypeInt || p.Type == TypeFloat }
	switch {
	case num(p) && num(q):
		return p.okF && q.okF
	case p.Type == TypeDate && q.Type == TypeDate:
		return p.okD && q.okD
	case p.Type == TypeDate && q.Type == TypeInt, p.Type == TypeInt && q.Type == TypeDate:
		return true
	}
	return false
}

// FuzzGeneric: over arbitrary strings, typed literals and IRIs a score is
// never NaN, always in [0, 1], 1 against itself, the same through the
// profile form, and symmetric wherever the metric is — everywhere but
// through Jaro, whose greedy matching depends on which side it scans.
func FuzzGeneric(f *testing.F) {
	for _, v := range []string{
		"", "abc", "LeBron James", "42", "-7", "3.25", "1984", "1984-12-30", "NaN", "nan", "Inf",
		"-Infinity", "1e300", "1e999", "0x1p-2", " 12 ", "http://x/A_b", "http://x#", "\xff", "İstanbul",
	} {
		for kind := uint8(0); kind < 8; kind++ {
			f.Add(kind, v, kind+3, "1984")
			f.Add(kind, v, kind, v)
		}
	}
	for _, v := range []string{"+.5", ".5e3", "-", "+Inf", "\u00a012", "0x1p4", "2020-02-30", "1_000", "\t-0.0"} {
		f.Add(uint8(6), v, uint8(5), v)
	}
	f.Fuzz(func(t *testing.T, ka uint8, va string, kb uint8, vb string) {
		a, b := fuzzTerm(ka, va), fuzzTerm(kb, vb)
		for _, x := range []rdf.Term{a, b} {
			if got, want := Infer(x), inferReference(x); got != want {
				t.Fatalf("Infer(%v) = %v, reference %v", x, got, want)
			}
		}
		ab, ba := Generic(a, b), Generic(b, a)
		for _, s := range []float64{ab, ba} {
			if math.IsNaN(s) || s < 0 || s > 1 {
				t.Fatalf("Generic(%v, %v) = %g / reversed %g: outside [0, 1]", a, b, ab, ba)
			}
		}
		if self := Generic(a, a); self != 1 {
			t.Fatalf("Generic(%v, itself) = %g, want 1", a, self)
		}
		pa, pb := NewProfile(a), NewProfile(b)
		var sc Scratch
		if got := pa.Sim(pb, &sc); math.Float64bits(got) != math.Float64bits(ab) {
			t.Fatalf("profile form of Generic(%v, %v) = %x, want %x", a, b, got, ab)
		}
		if metricSymmetric(pa, pb) && ab != ba {
			t.Fatalf("Generic(%v, %v) = %g but reversed %g", a, b, ab, ba)
		}
	})
}

// inferReference is Infer as it was before it answered TypeString from a
// value's first byte: every parser tried in turn.
func inferReference(t rdf.Term) ValueType {
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
		if v == "" {
			return TypeString
		}
		if _, err := strconv.ParseInt(v, 10, 64); err == nil {
			return TypeInt
		}
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

// TestInferMatchesReference compares Infer with the parser cascade it
// short-cuts, over edge cases and over values built around each possible
// first byte.
func TestInferMatchesReference(t *testing.T) {
	values := []string{"", " ", "nan", "NaN", "+Inf", "-infinity", ".", "+.5", "-.5e-3", "0x1p4", "0b101",
		"1_000", "2020-01-02", "2020-02-30", " 1984 ", "\u00a012", "\u200b12", "e5", "E5", "_1", "１２"}
	for c := 0; c < 256; c++ {
		for _, tail := range []string{"", "1", "5.5", "020-01-02", "nf", "e3"} {
			values = append(values, string([]byte{byte(c)})+tail)
		}
	}
	for _, v := range values {
		for _, term := range []rdf.Term{rdf.NewString(v), rdf.NewLangString(v, "en")} {
			if got, want := Infer(term), inferReference(term); got != want {
				t.Errorf("Infer(%q) = %v, reference %v", v, got, want)
			}
		}
	}
}
