package sim

import (
	"math"
	"testing"
)

// stringSimReference is the model stringSim is held to: the maximum of
// Jaro-Winkler, over jaroReference, and token Jaccard, every cell through
// both kernels. It must produce the same float bits.
func stringSimReference(a, b *text) float64 {
	if a.s == b.s {
		return 1
	}
	jw := jaroReference(a.runes, b.runes)
	if jw != 0 {
		prefix := 0
		for prefix < len(a.runes) && prefix < len(b.runes) && prefix < 4 && a.runes[prefix] == b.runes[prefix] {
			prefix++
		}
		jw += float64(prefix) * 0.1 * (1 - jw)
	}
	tj := tokenJaccard(a.tokens, b.tokens)
	if tj > jw {
		return tj
	}
	return jw
}

// checkStringSim holds stringSim to the reference in both argument orders.
func checkStringSim(t *testing.T, sc *Scratch, a, b *text) {
	t.Helper()
	for _, p := range [][2]*text{{a, b}, {b, a}} {
		got, want := stringSim(p[0], p[1], sc), stringSimReference(p[0], p[1])
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("stringSim(%q, %q) = %x, reference %x", p[0].s, p[1].s, got, want)
		}
	}
}

// FuzzStringSim: on any two texts stringSim equals the reference bit for
// bit in both argument orders, through a fresh Scratch and through one
// that has served every earlier input of the run. The seeds are the shapes
// a shortcut on shared runes could get wrong: letters against digits, two
// texts without tokens (whose token Jaccard is 1), one side without tokens,
// the empty text, non-ASCII runes whose low seven bits spell an ASCII rune
// (š and a, Ţ and b), invalid UTF-8, and runes that lower-case into ASCII
// (the Kelvin sign into k) or into ASCII plus a combining mark (İ). Then
// the shapes on both sides of the token bound, where token Jaccard is
// skipped once min/max of the token counts cannot beat Jaro-Winkler: equal
// token sets in another order (bound 1, Jaccard wins), one token against
// two (bound 1/2), three against four (bound 3/4), and a text without
// tokens against one with tokens (bound 0).
func FuzzStringSim(f *testing.F) {
	for _, seed := range [][2]string{
		{"LeBron James", "1984-12-30"},
		{"Miami Heat", "2013"},
		{"-", "."},
		{"-", "abc"},
		{"", "x"},
		{"", ""},
		{"", "-"},
		{"š", "a"},
		{"Ţ", "b"},
		{"šš ţ", "aa b"},
		{"\xff", "\xfe"},
		{"a\xffb", "\xff"},
		{"K", "k"},
		{"K", "K"},
		{"İstanbul", "i"},
		{"İ", "I"},
		{"MARTHA", "MARHTA"},
		{"anna maria", "maria anna"},
		{"jordan", "michael jordan"},
		{"a b c", "c b a d"},
		{"--", "--ab"},
	} {
		f.Add(seed[0], seed[1])
	}
	var sc Scratch
	f.Fuzz(func(t *testing.T, a, b string) {
		ta, tb := newText(a), newText(b)
		var fresh Scratch
		checkStringSim(t, &fresh, &ta, &tb)
		checkStringSim(t, &sc, &ta, &tb)
	})
}

// TestNoSharedRuneSkipsTheKernels pins the mechanism: two texts with no
// rune in common and a token between them score 0 without the Jaro kernel
// loading its table; two texts without tokens still run it, because their
// token Jaccard is 1.
func TestNoSharedRuneSkipsTheKernels(t *testing.T) {
	for _, c := range []struct {
		a, b   string
		kernel bool
	}{
		{"lebron james", "1984-12-30", false},
		{"miami heat", "-", false},
		{"š", "a", true}, // a collision: one kernel call
		{"-", ".", true},
		{"miami heat", "heat", true},
	} {
		ta, tb := newText(c.a), newText(c.b)
		var sc Scratch
		got := stringSim(&ta, &tb, &sc)
		if ran := sc.table != nil; ran != c.kernel {
			t.Errorf("stringSim(%q, %q): kernel ran %v, want %v", c.a, c.b, ran, c.kernel)
		}
		if !c.kernel && got != 0 {
			t.Errorf("stringSim(%q, %q) = %g without the kernels, want 0", c.a, c.b, got)
		}
	}
}
