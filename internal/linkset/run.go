package linkset

import (
	"cmp"
	"slices"

	"alex/internal/rdf"
)

// This file holds the published form of a link set and the operations on
// it. A run is a []Link in strictly ascending Compare order — sorted, no
// duplicates. Every layer that publishes links (Set's sorted view, the
// engine's per-partition candidates, the federation's alias index) keeps a
// run and brings it up to date by sorting what changed and merging, never
// by re-sorting the whole set. The helpers read their inputs and write
// only to the slice they return.

// Compare orders links by (Left, Right): the one order runs are kept in.
func Compare(a, b Link) int { return cmp.Compare(a.Key(), b.Key()) }

// Key packs the link into one integer that sorts as Compare does (TermID
// is 32 bits wide).
func (l Link) Key() uint64 { return uint64(l.Left)<<32 | uint64(l.Right) }

// Reversed returns the link with its ends swapped. A run of reversed links
// is the same links in (Right, Left) order, so one order serves lookups
// from either end.
func (l Link) Reversed() Link { return Link{Left: l.Right, Right: l.Left} }

// Sort turns links into a run in place: it sorts them, drops duplicates
// and returns the shortened slice. Past a handful of links it sorts packed
// 64-bit keys, whose comparison the sort can inline.
func Sort(links []Link) []Link {
	if len(links) <= 16 {
		slices.SortFunc(links, Compare)
		return slices.Compact(links)
	}
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

// Diff walks two runs once and returns what next has that prev lacks
// (added) and what prev has that next lacks (removed), each a run.
func Diff(prev, next []Link) (added, removed []Link) {
	i, j := 0, 0
	for i < len(prev) && j < len(next) {
		switch kp, kn := prev[i].Key(), next[j].Key(); {
		case kp < kn:
			removed = append(removed, prev[i])
			i++
		case kp > kn:
			added = append(added, next[j])
			j++
		default:
			i++
			j++
		}
	}
	return append(added, next[j:]...), append(removed, prev[i:]...)
}

// diffCount is len(added)+len(removed) of Diff without building either.
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

// Patch appends to dst the run base with the links of remove taken out
// and the links of add put in, and returns it. All three are runs, add and
// remove share no link, and dst must not overlap base. Patch is Diff's
// inverse: Patch(nil, prev, added, removed) is next.
func Patch(dst, base, add, remove []Link) []Link {
	i, j := 0, 0 // next of add, of remove
	for _, l := range base {
		k := l.Key()
		for ; i < len(add) && add[i].Key() < k; i++ {
			dst = append(dst, add[i])
		}
		if i < len(add) && add[i] == l {
			i++
		}
		for j < len(remove) && remove[j].Key() < k {
			j++
		}
		if j == len(remove) || remove[j] != l {
			dst = append(dst, l)
		}
	}
	return append(dst, add[i:]...)
}

// Merge returns the union of runs as one newly allocated run, by merging
// them pairwise.
func Merge(runs ...[]Link) []Link {
	if len(runs) == 1 {
		return slices.Clone(runs[0])
	}
	return merge(runs)
}

// merge is Merge that may return one of its inputs.
func merge(runs [][]Link) []Link {
	switch len(runs) {
	case 0:
		return nil
	case 1:
		return runs[0]
	}
	a, b := merge(runs[:len(runs)/2]), merge(runs[len(runs)/2:])
	out := make([]Link, len(a)+len(b))
	i, j, n := 0, 0, 0
	for ; i < len(a) && j < len(b); n++ {
		switch ka, kb := a[i].Key(), b[j].Key(); {
		case ka < kb:
			out[n] = a[i]
			i++
		case ka > kb:
			out[n] = b[j]
			j++
		default:
			out[n] = a[i]
			i++
			j++
		}
	}
	n += copy(out[n:], a[i:])
	n += copy(out[n:], b[j:])
	return out[:n]
}
