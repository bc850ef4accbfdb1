package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestJaro(t *testing.T) {
	tests := []struct {
		a, b string
		want float64
	}{
		{"", "", 1},
		{"a", "a", 1},
		{"abc", "xyz", 0},
		// Canonical Jaro examples.
		{"MARTHA", "MARHTA", 0.9444444444},
		{"DIXON", "DICKSONX", 0.7666666667},
	}
	for _, tt := range tests {
		if got := Jaro(tt.a, tt.b); math.Abs(got-tt.want) > 1e-6 {
			t.Errorf("Jaro(%q,%q) = %g, want %g", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestJaroWinkler(t *testing.T) {
	// Canonical example: MARTHA/MARHTA with 3-rune prefix.
	if got := JaroWinkler("MARTHA", "MARHTA"); math.Abs(got-0.9611111111) > 1e-6 {
		t.Errorf("JaroWinkler(MARTHA,MARHTA) = %g", got)
	}
	if got := JaroWinkler("abc", "xyz"); got != 0 {
		t.Errorf("JaroWinkler disjoint = %g, want 0", got)
	}
	if got := JaroWinkler("same", "same"); got != 1 {
		t.Errorf("JaroWinkler identical = %g, want 1", got)
	}
}

func TestTokenize(t *testing.T) {
	got := Tokenize("LeBron James, Jr. (NBA-2013)")
	want := []string{"lebron", "james", "jr", "nba", "2013"}
	if len(got) != len(want) {
		t.Fatalf("Tokenize = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestTokenJaccard(t *testing.T) {
	tests := []struct {
		a, b string
		want float64
	}{
		{"", "", 1},
		{"a b", "", 0},
		{"LeBron James", "James, LeBron", 1},
		{"a b c", "a b d", 0.5},
		{"a a b", "a b", 1}, // multiset collapsed to set
	}
	for _, tt := range tests {
		if got := TokenJaccard(tt.a, tt.b); !almostEq(got, tt.want) {
			t.Errorf("TokenJaccard(%q,%q) = %g, want %g", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestStringSim(t *testing.T) {
	if got := StringSim("x", "x"); got != 1 {
		t.Errorf("identical = %g", got)
	}
	// Reordered tokens: token Jaccard should dominate.
	if got := StringSim("James LeBron", "LeBron James"); got != 1 {
		t.Errorf("reordered = %g, want 1", got)
	}
	// Typo: Jaro-Winkler should dominate.
	if got := StringSim("Lebron James", "LeBron James"); got < 0.9 {
		t.Errorf("typo = %g, want >= 0.9", got)
	}
}

// Properties shared by all string metrics: range [0,1], symmetry, identity.
func TestStringMetricProperties(t *testing.T) {
	metrics := map[string]func(a, b string) float64{
		"Jaro":         Jaro,
		"JaroWinkler":  JaroWinkler,
		"TokenJaccard": TokenJaccard,
		"StringSim":    StringSim,
	}
	for name, m := range metrics {
		m := m
		t.Run(name, func(t *testing.T) {
			prop := func(a, b string) bool {
				if len(a) > 64 {
					a = a[:64]
				}
				if len(b) > 64 {
					b = b[:64]
				}
				ab := m(a, b)
				ba := m(b, a)
				if ab < 0 || ab > 1 {
					return false
				}
				if math.Abs(ab-ba) > 1e-9 {
					return false
				}
				return m(a, a) == 1
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
				t.Error(err)
			}
		})
	}
}
