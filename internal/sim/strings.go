// Package sim implements the similarity functions ALEX uses to score
// feature values. All functions return a score in [0, 1], where 1 means
// identical. The package provides string metrics (Levenshtein, Jaro,
// Jaro-Winkler, token and trigram Jaccard), numeric and date metrics, and a
// type-dispatched Generic function that picks a metric from the inferred
// value types, matching the paper's "generic similarity function that
// depends on the type of the attributes" (§4.1).
package sim

import (
	"slices"
	"strings"
	"unicode"
)

// Levenshtein returns 1 - editDistance/maxLen, a normalized edit similarity.
func Levenshtein(a, b string) float64 {
	if a == b {
		return 1
	}
	ra, rb := []rune(a), []rune(b)
	la, lb := len(ra), len(rb)
	if la == 0 || lb == 0 {
		return 0
	}
	prev := make([]int, lb+1)
	cur := make([]int, lb+1)
	for j := 0; j <= lb; j++ {
		prev[j] = j
	}
	for i := 1; i <= la; i++ {
		cur[0] = i
		for j := 1; j <= lb; j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	maxLen := la
	if lb > maxLen {
		maxLen = lb
	}
	return 1 - float64(prev[lb])/float64(maxLen)
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

// Scratch holds the buffers the string kernels reuse from one call to the
// next, so a caller scoring many pairs allocates them once. The zero value
// is ready to use; a Scratch must not be shared between goroutines.
type Scratch struct {
	matchA, matchB []bool
}

// flags returns two cleared match-flag slices of lengths la and lb.
func (sc *Scratch) flags(la, lb int) (a, b []bool) {
	if cap(sc.matchA) < la {
		sc.matchA = make([]bool, la)
	}
	if cap(sc.matchB) < lb {
		sc.matchB = make([]bool, lb)
	}
	a, b = sc.matchA[:la], sc.matchB[:lb]
	clear(a)
	clear(b)
	return a, b
}

// Jaro returns the Jaro similarity between two strings.
func Jaro(a, b string) float64 {
	if a == b {
		return 1
	}
	var sc Scratch
	return jaro([]rune(a), []rune(b), &sc)
}

// jaro is Jaro over two distinct strings' runes.
func jaro(ra, rb []rune, sc *Scratch) float64 {
	la, lb := len(ra), len(rb)
	if la == 0 || lb == 0 {
		return 0
	}
	window := max2(la, lb)/2 - 1
	if window < 0 {
		window = 0
	}
	matchA, matchB := sc.flags(la, lb)
	matches := 0
	for i := 0; i < la; i++ {
		lo := max2(0, i-window)
		hi := min2(lb-1, i+window)
		for j := lo; j <= hi; j++ {
			if matchB[j] || ra[i] != rb[j] {
				continue
			}
			matchA[i] = true
			matchB[j] = true
			matches++
			break
		}
	}
	if matches == 0 {
		return 0
	}
	transpositions := 0
	j := 0
	for i := 0; i < la; i++ {
		if !matchA[i] {
			continue
		}
		for !matchB[j] {
			j++
		}
		if ra[i] != rb[j] {
			transpositions++
		}
		j++
	}
	m := float64(matches)
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

// Trigrams returns the padded character trigram multiset of s as a set.
func Trigrams(s string) map[string]struct{} {
	s = "  " + strings.ToLower(s) + "  "
	out := make(map[string]struct{})
	runes := []rune(s)
	for i := 0; i+3 <= len(runes); i++ {
		out[string(runes[i:i+3])] = struct{}{}
	}
	return out
}

// TrigramJaccard returns the Jaccard similarity of padded character trigram
// sets, a metric robust to token reordering and small edits.
func TrigramJaccard(a, b string) float64 {
	if a == b {
		return 1
	}
	ga, gb := Trigrams(a), Trigrams(b)
	if len(ga) == 0 || len(gb) == 0 {
		return 0
	}
	inter := 0
	for g := range ga {
		if _, ok := gb[g]; ok {
			inter++
		}
	}
	union := len(ga) + len(gb) - inter
	return float64(inter) / float64(union)
}

// text is a string prepared for StringSim: its runes and its sorted,
// de-duplicated token set, each derived once.
type text struct {
	s      string
	runes  []rune
	tokens []string
}

func newText(s string) text {
	return text{s: s, runes: []rune(s), tokens: tokenSet(s)}
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

// stringSim is StringSim over prepared texts.
func stringSim(a, b *text, sc *Scratch) float64 {
	if a.s == b.s {
		return 1
	}
	jw := jaroWinkler(a.runes, b.runes, sc)
	tj := tokenJaccard(a.tokens, b.tokens)
	if tj > jw {
		return tj
	}
	return jw
}

func max2(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func min2(a, b int) int {
	if a < b {
		return a
	}
	return b
}
