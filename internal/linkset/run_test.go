package linkset

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"alex/internal/rdf"
)

// The naive reference the run helpers are compared against: plain maps and
// a from-scratch sort with the comparison spelled out, sharing nothing
// with run.go.

func naiveLess(a, b Link) bool {
	if a.Left != b.Left {
		return a.Left < b.Left
	}
	return a.Right < b.Right
}

func naiveRun(m map[Link]bool) []Link {
	out := []Link{}
	for l, in := range m {
		if in {
			out = append(out, l)
		}
	}
	sort.Slice(out, func(i, j int) bool { return naiveLess(out[i], out[j]) })
	return out
}

// randomLinks draws n links (repeats likely) from a small universe, so
// sets overlap, share Left ends and hit both ends of the id range.
func randomLinks(rng *rand.Rand, n int) []Link {
	out := make([]Link, n)
	for i := range out {
		out[i] = lk(uint32(rng.Intn(12)), uint32(rng.Intn(12)))
	}
	return out
}

func asMap(links []Link) map[Link]bool {
	m := map[Link]bool{}
	for _, l := range links {
		m[l] = true
	}
	return m
}

// refSort is the comparison sort Sort used before its radix path: pack the
// keys, sort them with the standard library, drop repeats, unpack.
func refSort(links []Link) []Link {
	keys := make([]uint64, len(links))
	for i, l := range links {
		keys[i] = l.Key()
	}
	slices.Sort(keys)
	keys = slices.Compact(keys)
	for i, k := range keys {
		links[i] = Link{Left: rdf.TermID(k >> 32), Right: rdf.TermID(uint32(k))}
	}
	return links[:len(keys)]
}

// wideLinks draws n links whose ends have up to bits significant bits, a
// few of them repeated, so that above 16 bits more than two bytes of each
// end vary.
func wideLinks(rng *rand.Rand, n, bits int) []Link {
	mask := uint32(1<<bits - 1)
	out := make([]Link, n)
	for i := range out {
		if i > 0 && rng.Intn(8) == 0 {
			out[i] = out[rng.Intn(i)]
			continue
		}
		out[i] = lk(rng.Uint32()&mask, rng.Uint32()&mask)
	}
	return out
}

func TestRunHelpersMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	radix := 0
	for round := 0; round < 500; round++ {
		a, b := randomLinks(rng, rng.Intn(40)), randomLinks(rng, rng.Intn(40))
		if round%5 == 0 {
			// Past the crossover: Sort takes its radix path.
			n := RadixMin + rng.Intn(2*RadixMin)
			a, b = wideLinks(rng, n, 1+rng.Intn(32)), wideLinks(rng, n, 1+rng.Intn(32))
			radix++
		}
		ma, mb := asMap(a), asMap(b)
		ra, rb := naiveRun(ma), naiveRun(mb)

		if got := Sort(slices.Clone(a)); !slices.Equal(got, ra) {
			t.Fatalf("Sort(%v) = %v, want %v", a, got, ra)
		}
		if !isRun(ra) || (len(a) > 1 && isRun(append(slices.Clone(ra), ra[0]))) {
			t.Fatalf("isRun wrong on %v", ra)
		}

		// diffCount against the set differences.
		want := 0
		for l := range mb {
			if !ma[l] {
				want++
			}
		}
		for l := range ma {
			if !mb[l] {
				want++
			}
		}
		if got := diffCount(ra, rb); got != want {
			t.Fatalf("diffCount(%v, %v) = %d, want %d", ra, rb, got, want)
		}

		// WithLeft, for every id in and just outside the small universe,
		// and for some ends of the wide one.
		lefts := []rdf.TermID{}
		for left := rdf.TermID(0); left < 14; left++ {
			lefts = append(lefts, left)
		}
		for _, l := range a[:min(len(a), 32)] {
			lefts = append(lefts, l.Left, l.Left+1)
		}
		for _, left := range lefts {
			want := []Link{}
			for _, l := range ra {
				if l.Left == left {
					want = append(want, l)
				}
			}
			if got := WithLeft(ra, left); !slices.Equal(got, want) {
				t.Fatalf("WithLeft(%v, %d) = %v, want %v", ra, left, got, want)
			}
		}
	}
	if radix < 50 {
		t.Errorf("only %d rounds past the radix crossover", radix)
	}
}

// FuzzSort checks Sort, on either side of the radix crossover, against
// refSort: n links whose ends have up to bits significant bits, one in
// every dupEvery repeated. Over the same links it checks a Set against a
// map: both constructors give the same run, Contains and Evaluate agree
// with the map, and no read writes the run Sorted handed out.
func FuzzSort(f *testing.F) {
	for _, n := range []uint16{0, 1, 17, RadixMin - 1, RadixMin, RadixMin + 1, 3 * RadixMin} {
		for _, bits := range []uint8{1, 8, 17, 32} {
			f.Add(int64(n)+int64(bits), n, bits, uint8(4))
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16, bits, dupEvery uint8) {
		n %= 4 * RadixMin
		bits = 1 + bits%32
		rng := rand.New(rand.NewSource(seed))
		links := make([]Link, n)
		mask := uint32(1<<bits - 1)
		for i := range links {
			if i > 0 && dupEvery > 0 && rng.Intn(int(dupEvery)) == 0 {
				links[i] = links[rng.Intn(i)]
				continue
			}
			links[i] = lk(rng.Uint32()&mask, rng.Uint32()&mask)
		}
		want := refSort(slices.Clone(links))
		set := FromLinks(links)
		if got := Sort(links); !slices.Equal(got, want) {
			t.Fatalf("Sort of %d links (%d bits) = %v, want %v", n, bits, got, want)
		}

		held := set.Sorted()
		if !slices.Equal(held, want) || !slices.Equal(FromSorted(Sort(slices.Clone(want))).Sorted(), held) {
			t.Fatalf("FromLinks of %d links (%d bits) = %v, want %v", n, bits, held, want)
		}
		heldCopy := slices.Clone(held)
		model := asMap(want)
		probes := slices.Clone(want)
		for i := 0; i < 16; i++ {
			probes = append(probes, lk(rng.Uint32()&mask, rng.Uint32()&mask))
		}
		for _, l := range probes {
			if set.Contains(l) != model[l] {
				t.Fatalf("Contains(%v) = %t, the model has %t", l, !model[l], model[l])
			}
		}
		// The truth: every other link of the set, and the probes.
		truth := slices.Clone(probes[len(want):])
		for i := 0; i < len(want); i += 2 {
			truth = append(truth, want[i])
		}
		both := 0
		for l := range asMap(truth) {
			if model[l] {
				both++
			}
		}
		if q := Evaluate(set, FromLinks(truth)); q.Correct != both {
			t.Fatalf("Evaluate counts %d correct, the model %d", q.Correct, both)
		}
		links = set.Links()
		for i := range links {
			links[i] = lk(0, 0)
		}
		if !slices.Equal(held, heldCopy) || !slices.Equal(set.Sorted(), heldCopy) {
			t.Fatal("a run Sorted handed out was written to")
		}
	})
}

// BenchmarkSort times the two ways SortKeys sorts, over the keys of 16 to
// 64 k links whose ends have 16 significant bits, as the ids of the
// benchmark's workloads do (four bytes of a key vary): RadixMin is the
// smallest length at which radix is the faster. Each byte more that varies
// costs radix one pass, and moves the crossover up.
func BenchmarkSort(b *testing.B) {
	for n := 16; n <= 64<<10; n *= 2 {
		src := make([]uint64, n)
		for i, l := range wideLinks(rand.New(rand.NewSource(int64(n))), n, 16) {
			src[i] = l.Key()
		}
		keys := make([]uint64, n)
		for _, c := range []struct {
			name string
			sort func([]uint64)
		}{{"radix", radixSort}, {"compare", slices.Sort[[]uint64]}} {
			b.Run(fmt.Sprintf("%s/%d", c.name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					copy(keys, src)
					c.sort(keys)
				}
			})
		}
	}
}

func TestReversedRunIsRightOrder(t *testing.T) {
	links := []Link{lk(1, 9), lk(2, 3), lk(2, 1), lk(5, 1)}
	rev := make([]Link, len(links))
	for i, l := range links {
		rev[i] = l.Reversed()
	}
	want := []Link{lk(1, 2), lk(1, 5), lk(3, 2), lk(9, 1)}
	if got := Sort(rev); !slices.Equal(got, want) {
		t.Errorf("reversed run = %v, want %v", got, want)
	}
}

func TestLinksIsACopy(t *testing.T) {
	s := FromLinks([]Link{lk(2, 2), lk(1, 1)})
	ls := s.Links()
	ls[0] = lk(9, 9)
	if got := s.Sorted(); !slices.Equal(got, []Link{lk(1, 1), lk(2, 2)}) {
		t.Errorf("writing to Links() changed the set's view: %v", got)
	}
}

func TestFromSorted(t *testing.T) {
	run := []Link{lk(1, 1), lk(1, 2), lk(3, 0)}
	s := FromSorted(run)
	if got := s.Sorted(); &got[0] != &run[0] {
		t.Error("FromSorted did not adopt the run")
	}
	if s.Len() != 3 || !s.Contains(lk(1, 2)) || s.Contains(lk(2, 1)) {
		t.Errorf("FromSorted set wrong: len %d", s.Len())
	}
	// Not a run: out of order, and with a repeat.
	for _, bad := range [][]Link{{lk(2, 2), lk(1, 1)}, {lk(1, 1), lk(1, 1), lk(2, 2)}} {
		s := FromSorted(bad)
		if got := s.Sorted(); !slices.Equal(got, []Link{lk(1, 1), lk(2, 2)}) {
			t.Errorf("FromSorted(%v).Sorted() = %v", bad, got)
		}
	}
	if s := FromSorted(nil); s.Len() != 0 || len(s.Sorted()) != 0 {
		t.Error("FromSorted(nil) not empty")
	}
}
