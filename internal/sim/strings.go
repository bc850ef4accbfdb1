// Package sim implements the similarity functions ALEX uses to score
// feature values. All functions return a score in [0, 1], where 1 means
// identical. The package provides string metrics (Jaro, Jaro-Winkler, token
// Jaccard and their maximum, StringSim), numeric, year and date metrics, an
// IRI metric over local names, and a type-dispatched Generic function that
// picks a metric from the inferred value types, matching the paper's
// "generic similarity function that depends on the type of the attributes"
// (§4.1).
//
// Every text a profile holds carries a rune signature, so StringSim scores
// two texts that share no rune (a name against a date, say) 0 without
// running either kernel; the score is the one the kernels would return,
// bit for bit (FuzzStringSim).
package sim

import (
	"math/bits"
	"slices"
	"strings"
	"unicode"
)

// Scratch holds the Jaro kernel's working set, reused from one call to the
// next so that a caller scoring many pairs allocates it once. The table of
// the second ("table") string stays filled between calls and is refilled
// only when that string changes, so scoring many strings against one costs
// one fill; the strings passed must therefore not be modified while the
// Scratch lives. The zero value is ready to use; a Scratch must not be
// shared between goroutines.
type Scratch struct {
	// mask[w][c] has bit k set when table[64*w+k] has low byte c. Runes that
	// share a low byte share an entry; jaro checks the rune itself on the
	// bit it picks.
	mask  [][256]uint64
	table []rune   // the string mask is filled for
	wide  uint32   // nonzero when table has a rune past U+00FF
	used  []uint64 // the table positions the matcher has paired off
	hits  []rune   // the runes of the other string it paired them with, in order
}

// load makes rb the table string: it clears the entries the previous table
// string set and sets rb's. A call with the string already loaded does
// nothing.
func (sc *Scratch) load(rb []rune) {
	if len(rb) == len(sc.table) && &rb[0] == &sc.table[0] {
		return
	}
	for j, r := range sc.table {
		sc.mask[j>>6][uint8(r)] = 0
	}
	if words := (len(rb) + 63) / 64; len(sc.mask) < words {
		sc.mask = make([][256]uint64, words)
		sc.used = make([]uint64, words)
	}
	sc.table, sc.wide = rb, 0
	for j, r := range rb {
		sc.mask[j>>6][uint8(r)] |= 1 << (j & 63)
		sc.wide |= uint32(r) >> 8
	}
}

// Jaro returns the Jaro similarity between two strings.
func Jaro(a, b string) float64 {
	if a == b {
		return 1
	}
	var sc Scratch
	return jaro([]rune(a), []rune(b), &sc)
}

// jaro is Jaro over two distinct strings' runes: the greedy matcher (each
// a[i], in order, takes the first unused equal rune of b within the window)
// run on bit sets. The candidates of a[i] are one AND of its mask entry with
// the window and the unused positions; the match is the lowest set bit.
func jaro(ra, rb []rune, sc *Scratch) float64 {
	la, lb := len(ra), len(rb)
	if la == 0 || lb == 0 {
		return 0
	}
	window := max(max(la, lb)/2-1, 0)
	sc.load(rb)
	if cap(sc.hits) < la {
		sc.hits = make([]rune, la)
	}
	hits, n, wide := sc.hits[:la], 0, sc.wide
	used := sc.used[:(lb+63)/64]
	clear(used)
	// Whether a[i] finds a partner is a coin toss the branch predictor
	// loses, so the loop body decides it in arithmetic: bit is the match or
	// zero, a[i] is written to hits either way and kept only by the count.
	// The branches left go one way on the data this runs on (PERF.md "PR 19").
	for i, r := range ra {
		lo, hi := max(0, i-window), min(lb-1, i+window)
		var bit uint64
		for w := lo >> 6; w <= hi>>6 && bit == 0; w++ {
			m := sc.mask[w][uint8(r)] &^ used[w]
			if w == lo>>6 {
				m &= ^uint64(0) << (lo & 63)
			}
			if w == hi>>6 {
				m &= ^uint64(0) >> (^hi & 63)
			}
			if wide|uint32(r)>>8 != 0 {
				// Runes that share a low byte share an entry: skip the others'.
				for m != 0 && rb[w<<6+bits.TrailingZeros64(m)] != r {
					m &= m - 1
				}
			}
			bit = m & -m
			used[w] |= bit
		}
		hits[n] = r
		n += int((bit | -bit) >> 63) // 1 when a[i] found a partner
	}
	if n == 0 {
		return 0
	}
	// The k-th matched rune of a against the k-th matched rune of b.
	transpositions, k := 0, 0
	for w, m := range used {
		for ; m != 0; m &= m - 1 {
			if hits[k] != rb[w<<6+bits.TrailingZeros64(m)] {
				transpositions++
			}
			k++
		}
	}
	m := float64(n)
	t := float64(transpositions) / 2
	return (m/float64(la) + m/float64(lb) + (m-t)/m) / 3
}

// JaroWinkler returns the Jaro-Winkler similarity with the standard prefix
// scale of 0.1 over at most 4 common prefix runes.
func JaroWinkler(a, b string) float64 {
	if a == b {
		return 1
	}
	var sc Scratch
	return jaroWinkler([]rune(a), []rune(b), &sc)
}

// jaroWinkler is JaroWinkler over two distinct strings' runes.
func jaroWinkler(ra, rb []rune, sc *Scratch) float64 {
	j := jaro(ra, rb, sc)
	if j == 0 {
		return 0
	}
	prefix := 0
	for prefix < len(ra) && prefix < len(rb) && prefix < 4 && ra[prefix] == rb[prefix] {
		prefix++
	}
	return j + float64(prefix)*0.1*(1-j)
}

// Tokenize lowercases s and splits it into alphanumeric tokens.
func Tokenize(s string) []string {
	return strings.FieldsFunc(strings.ToLower(s), func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsNumber(r)
	})
}

// tokenSet returns the tokens of s sorted and de-duplicated.
func tokenSet(s string) []string {
	toks := Tokenize(s)
	slices.Sort(toks)
	return slices.Compact(toks)
}

// TokenJaccard returns the Jaccard similarity of the token sets of a and b.
func TokenJaccard(a, b string) float64 {
	return tokenJaccard(tokenSet(a), tokenSet(b))
}

// tokenJaccard is TokenJaccard over two sorted, de-duplicated token sets.
func tokenJaccard(ta, tb []string) float64 {
	if len(ta) == 0 && len(tb) == 0 {
		return 1
	}
	if len(ta) == 0 || len(tb) == 0 {
		return 0
	}
	inter := 0
	for i, j := 0, 0; i < len(ta) && j < len(tb); {
		switch {
		case ta[i] == tb[j]:
			inter++
			i++
			j++
		case ta[i] < tb[j]:
			i++
		default:
			j++
		}
	}
	union := len(ta) + len(tb) - inter
	return float64(inter) / float64(union)
}

// text is a string prepared for StringSim: its runes, its sorted,
// de-duplicated token set and its rune signature, each derived once.
type text struct {
	s      string
	runes  []rune
	tokens []string
	// sig has bit r&127 set for every rune r of runes and of tokens: an
	// ASCII rune sets its own bit, any other shares one with an ASCII rune.
	// Two texts whose signatures do not intersect share no rune.
	sig [2]uint64
}

func newText(s string) text {
	t := text{s: s, runes: []rune(s), tokens: tokenSet(s)}
	for _, r := range t.runes {
		t.sig[r>>6&1] |= 1 << (r & 63)
	}
	for _, tok := range t.tokens {
		for _, r := range tok {
			t.sig[r>>6&1] |= 1 << (r & 63)
		}
	}
	return t
}

// StringSim is the default string metric: the maximum of Jaro-Winkler and
// token Jaccard. Jaro-Winkler captures near-identical surface forms with
// typos; token Jaccard captures reordered or partially overlapping names
// ("James, LeBron" vs "LeBron James").
func StringSim(a, b string) float64 {
	if a == b {
		return 1
	}
	ta, tb := newText(a), newText(b)
	var sc Scratch
	return stringSim(&ta, &tb, &sc)
}

// stringSim is StringSim over prepared texts. Two texts that share no
// rune score 0 without either kernel, unless neither has a token: Jaro
// pairs off equal runes only, so it finds no match and returns 0; two
// equal tokens would share their runes, so the token sets are disjoint
// and, one of them not empty, token Jaccard is 0 too. Without a token on
// either side token Jaccard is 1, so the kernels run.
//
// Token Jaccard is skipped when it cannot beat Jaro-Winkler: the shared
// tokens number at most min(|A|, |B|) and the union at least max(|A|,
// |B|), so Jaccard is at most min/max. Division rounds monotonically, so
// the rounded Jaccard is at most the rounded bound too, and a bound no
// greater than jw leaves jw the maximum, bit for bit.
func stringSim(a, b *text, sc *Scratch) float64 {
	if a.s == b.s {
		return 1
	}
	if a.sig[0]&b.sig[0]|a.sig[1]&b.sig[1] == 0 && len(a.tokens)+len(b.tokens) > 0 {
		return 0
	}
	jw := jaroWinkler(a.runes, b.runes, sc)
	lo, hi := min(len(a.tokens), len(b.tokens)), max(len(a.tokens), len(b.tokens))
	if hi > 0 && float64(lo)/float64(hi) <= jw {
		return jw
	}
	tj := tokenJaccard(a.tokens, b.tokens)
	if tj > jw {
		return tj
	}
	return jw
}
