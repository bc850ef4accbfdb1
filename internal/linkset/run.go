package linkset

import (
	"cmp"
	"slices"
	"sync"

	"alex/internal/rdf"
)

// This file holds the published form of a link set and the operations on
// it. A run is a []Link in strictly ascending Compare order — sorted, no
// duplicates. The layers that publish links (a Set, the engine's
// candidates, the federation's alias index) build their runs by Sort,
// which is linear in the links past RadixMin of them, and not by merging
// what changed since the last run into it: between two publications of
// the engine's candidates about a third of the set changes, and sorting
// and merging that costs more than sorting the whole.
// Only a partition's view, which an episode may change in a few links,
// merges its sorted log of changes (core's partition.fold).

// Compare orders links by (Left, Right): the one order runs are kept in.
func Compare(a, b Link) int { return cmp.Compare(a.Key(), b.Key()) }

// Key packs the link into one integer that sorts as Compare does (TermID
// is 32 bits wide).
func (l Link) Key() uint64 { return uint64(l.Left)<<32 | uint64(l.Right) }

// FromKey is Key's inverse: the link k was packed from.
func FromKey(k uint64) Link { return Link{Left: rdf.TermID(k >> 32), Right: rdf.TermID(uint32(k))} }

// Reversed returns the link with its ends swapped. A run of reversed links
// is the same links in (Right, Left) order, so one order serves lookups
// from either end.
func (l Link) Reversed() Link { return Link{Left: l.Right, Right: l.Left} }

// Sort turns links into a run in place: it sorts them, drops duplicates
// and returns the shortened slice. Past a handful of links it sorts their
// packed keys (SortKeys).
func Sort(links []Link) []Link {
	if len(links) <= 16 {
		slices.SortFunc(links, Compare)
		return slices.Compact(links)
	}
	buf := getKeys(len(links))
	keys := *buf
	for i, l := range links {
		keys[i] = l.Key()
	}
	SortKeys(keys)
	n := 0
	for i, k := range keys {
		if i == 0 || k != keys[i-1] {
			links[n] = FromKey(k)
			n++
		}
	}
	keyPool.Put(buf)
	return links[:n]
}

// RadixMin is the length from which SortKeys sorts by radix instead of by
// comparison: BenchmarkSort's crossover.
const RadixMin = 1024

// SortKeys sorts keys ascending in place, repeats kept: by comparison
// below RadixMin keys, by radixSort from there on.
func SortKeys(keys []uint64) {
	if len(keys) < RadixMin {
		slices.Sort(keys)
		return
	}
	radixSort(keys)
}

// radixSort is a least-significant-digit radix sort over the bytes in which
// the keys differ: linear in the keys, with one pass to count every byte's
// digits and one more per byte that varies. Its scratch buffer is reused
// from call to call.
func radixSort(keys []uint64) {
	if len(keys) == 0 {
		return
	}
	var differ uint64
	var at [8][256]uint32 // by byte and digit: the count, then the next slot
	for _, k := range keys {
		differ |= k ^ keys[0]
		at[0][byte(k)]++
		at[1][byte(k>>8)]++
		at[2][byte(k>>16)]++
		at[3][byte(k>>24)]++
		at[4][byte(k>>32)]++
		at[5][byte(k>>40)]++
		at[6][byte(k>>48)]++
		at[7][byte(k>>56)]++
	}
	buf := getKeys(len(keys))
	src, dst := keys, *buf
	for b := range at {
		shift := 8 * b
		if byte(differ>>shift) == 0 {
			continue
		}
		next := &at[b]
		var sum uint32
		for d, n := range next {
			next[d] = sum
			sum += n
		}
		for _, k := range src {
			d := byte(k >> shift)
			dst[next[d]] = k
			next[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
	}
	keyPool.Put(buf)
}

// keyPool holds the key buffers Sort and SortKeys work in.
var keyPool = sync.Pool{New: func() any { return new([]uint64) }}

// getKeys returns a pooled buffer of n keys.
func getKeys(n int) *[]uint64 {
	buf := keyPool.Get().(*[]uint64)
	if cap(*buf) < n {
		*buf = make([]uint64, n)
	}
	*buf = (*buf)[:n]
	return buf
}

func isRun(links []Link) bool {
	for i := 1; i < len(links); i++ {
		if Compare(links[i-1], links[i]) >= 0 {
			return false
		}
	}
	return true
}

// WithLeft returns the part of run whose links have the given Left end —
// a sub-slice of run, found by binary search.
func WithLeft(run []Link, left rdf.TermID) []Link {
	// Hand-rolled: the federation does this for both ends of every row it
	// joins, where a comparison through a func value shows.
	lo, hi := 0, len(run)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); run[m].Left < left {
			lo = m + 1
		} else {
			hi = m
		}
	}
	for hi < len(run) && run[hi].Left == left {
		hi++
	}
	return run[lo:hi]
}

// diffCount is the size of the symmetric difference of two runs: what
// one has and the other lacks, both ways round.
func diffCount(a, b []Link) int {
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		c := Compare(a[i], b[j])
		if c != 0 {
			n++
		}
		if c <= 0 {
			i++
		}
		if c >= 0 {
			j++
		}
	}
	return n + len(a) - i + len(b) - j
}
