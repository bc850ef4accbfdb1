package sim

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"alex/internal/datagen"
)

// jaroReference is the model jaro is held to: the textbook greedy matcher,
// one window scan per rune of a, as the package ran it before the kernel
// went bit-parallel. It must produce the same matches and transpositions,
// hence the same float bits.
func jaroReference(ra, rb []rune) float64 {
	la, lb := len(ra), len(rb)
	if la == 0 || lb == 0 {
		return 0
	}
	window := max(max(la, lb)/2-1, 0)
	matchA, matchB := make([]bool, la), make([]bool, lb)
	matches := 0
	for i := 0; i < la; i++ {
		for j := max(0, i-window); j <= min(lb-1, i+window); j++ {
			if matchB[j] || ra[i] != rb[j] {
				continue
			}
			matchA[i], matchB[j] = true, true
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

// checkJaro holds jaro to the reference in both directions — each against
// the reference, not against each other: the greedy matcher is not
// symmetric.
func checkJaro(t *testing.T, sc *Scratch, ra, rb []rune) {
	t.Helper()
	for _, p := range [][2][]rune{{ra, rb}, {rb, ra}} {
		got, want := jaro(p[0], p[1], sc), jaroReference(p[0], p[1])
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("jaro(%q, %q) = %x, reference %x", string(p[0]), string(p[1]), got, want)
		}
	}
}

// TestJaroMatchesReference runs the kernel against the reference over the
// shapes the benchmark data never reaches (PERF.md "PR 19"): strings past
// one and two mask words, runes that collide in the table's low byte, and
// invalid UTF-8. One Scratch lives across every case, so a table entry or a
// used bit left behind by one call fails a later one.
func TestJaroMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	var sc Scratch
	alphabets := [][]rune{
		[]rune("ab"),
		[]rune("abcd "),
		{'a', 'š', 'ɡ', 'b', 'Ţ'},           // U+0061 U+0161 U+0261 share a low byte; so do U+0062 U+0162
		{'a', 'š', 0x10061, 0xFFFD, 0x00FF}, // past the BMP, the replacement rune, the last narrow rune
	}
	random := func(alpha []rune, n int) []rune {
		out := make([]rune, n)
		for i := range out {
			out[i] = alpha[rng.Intn(len(alpha))]
		}
		return out
	}
	lengths := []int{0, 1, 2, 63, 64, 65, 128, 200}
	for _, alpha := range alphabets {
		for _, la := range lengths {
			for _, lb := range lengths {
				for rep := 0; rep < 3; rep++ {
					checkJaro(t, &sc, random(alpha, la), random(alpha, lb))
				}
			}
		}
	}
	// Near-duplicates: long common runs with edits, so matches and
	// transpositions are many and cross word boundaries.
	for rep := 0; rep < 200; rep++ {
		alpha := alphabets[rep%len(alphabets)]
		ra := random(alpha, 1+rng.Intn(150))
		rb := append([]rune(nil), ra...)
		for e := rng.Intn(6); e > 0 && len(rb) > 1; e-- {
			i, j := rng.Intn(len(rb)), rng.Intn(len(rb))
			switch rng.Intn(3) {
			case 0:
				rb[i], rb[j] = rb[j], rb[i]
			case 1:
				rb = append(rb[:i], rb[i+1:]...)
			default:
				rb[i] = alpha[rng.Intn(len(alpha))]
			}
		}
		checkJaro(t, &sc, ra, rb)
	}
	// One table string against many others, as a matrix column runs it: the
	// table is filled once and must serve every call.
	column := random(alphabets[2], 70)
	for rep := 0; rep < 50; rep++ {
		ra := random(alphabets[2], rng.Intn(90))
		got, want := jaro(ra, column, &sc), jaroReference(ra, column)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("column call %d: jaro(%q, %q) = %x, reference %x", rep, string(ra), string(column), got, want)
		}
	}
	for _, s := range []string{
		"\xff\xfe", "ab\xffcd", "\xf0\x28\x8c\xbc", "a\xc0\xafb", strings.Repeat("\xff", 70),
		"MARTHA", "MARHTA", "DIXON", "DICKSONX", "šaš", "asa", "ɡaɡa", "aɡaɡ",
	} {
		for _, u := range []string{"", "a", "\xff", "ab\xfecd", "MARHTA", "aša", "ɡ", strings.Repeat("a\xff", 40)} {
			checkJaro(t, &sc, []rune(s), []rune(u))
		}
	}
}

// FuzzJaro: on any two strings the kernel equals the reference in both
// directions, through a fresh Scratch and through one that has served every
// earlier input of the run.
func FuzzJaro(f *testing.F) {
	f.Add("MARTHA", "MARHTA")
	f.Add("", "a")
	f.Add("a\xffb", "\xfe")
	var sc Scratch
	f.Fuzz(func(t *testing.T, a, b string) {
		ra, rb := []rune(a), []rune(b)
		var fresh Scratch
		checkJaro(t, &fresh, ra, rb)
		checkJaro(t, &sc, ra, rb)
	})
}

// TestLinkBatchKernelShapes counts, over the data sets the end-to-end
// benchmark's link_batch workload links (bench/w_link.go: DBpediaNYTimes at
// scale 0.2, data seeds 1000 to 1031), the texts that would take the kernel
// past one mask word or into its rune check. A kernel call has such a shape
// only if one of its two texts does; PERF.md "PR 19" quotes the figures.
func TestLinkBatchKernelShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("generates 32 data set pairs")
	}
	texts, long, wide := 0, 0, 0
	for seed := int64(1000); seed < 1032; seed++ {
		pair := datagen.GeneratePair(datagen.DBpediaNYTimes(0.2, seed))
		for _, id := range append(objectTerms(pair.DS1), objectTerms(pair.DS2)...) {
			p := NewProfile(pair.Dict.Term(id))
			for _, tx := range []*text{&p.lower, &p.local} {
				if len(tx.runes) == 0 {
					continue
				}
				texts++
				if len(tx.runes) > 64 {
					long++
				}
				for _, r := range tx.runes {
					if r > 0xFF {
						wide++
						break
					}
				}
			}
		}
	}
	t.Logf("link_batch data: %d texts, %d longer than 64 runes, %d with a rune past U+00FF", texts, long, wide)
}
