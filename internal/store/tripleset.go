package store

import "alex/internal/rdf"

// tripleSet maps each triple to its position in the insertion log.
// It replaces a map[rdf.TripleID]int32 on the store's hottest write path:
// an open-addressing table with linear probing over flat 16-byte slots.
// The slot array holds no pointers, so the GC never scans it, and inserts
// touch one cache line instead of the builtin map's group metadata —
// snapshot recovery and bulk load spend a large share of their time on
// exactly this dedup/position table.
//
// Concurrency contract is the caller's, same as the map it replaced:
// every access happens under Store.mu.
type tripleSet struct {
	// slots[i].n is 0 for an empty slot and pos+1 for an entry. The zero
	// slot value means empty, so a fresh table needs no initialization
	// pass. Entries are never removed.
	slots []tripleSlot
	mask  uint32
	count int
}

type tripleSlot struct {
	t rdf.TripleID
	n int32
}

// newTripleSet sizes the table so capHint entries stay under the 3/4
// load factor that keeps probe chains short.
func newTripleSet(capHint int) *tripleSet {
	size := uint32(16)
	for int(size)*3 < capHint*4 {
		size <<= 1
	}
	return &tripleSet{slots: make([]tripleSlot, size), mask: size - 1}
}

// hash mixes the three term ids; the multiply-xor finalizer avalanches
// well enough that sequential dict ids spread across the table.
func (ts *tripleSet) hash(t rdf.TripleID) uint32 {
	h := uint64(t.S)*0x9E3779B185EBCA87 ^ uint64(t.P)*0xC2B2AE3D27D4EB4F ^ uint64(t.O)*0x165667B19E3779F9
	h ^= h >> 29
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 32
	return uint32(h)
}

// get returns the position of t and whether it is present.
func (ts *tripleSet) get(t rdf.TripleID) (int32, bool) {
	i := ts.hash(t) & ts.mask
	for {
		s := &ts.slots[i]
		if s.n == 0 {
			return 0, false
		}
		if s.t == t {
			return s.n - 1, true
		}
		i = (i + 1) & ts.mask
	}
}

// put inserts t at pos, or updates its position when already present.
func (ts *tripleSet) put(t rdf.TripleID, pos int32) {
	if (ts.count+1)*4 > len(ts.slots)*3 {
		ts.grow()
	}
	i := ts.hash(t) & ts.mask
	for {
		s := &ts.slots[i]
		if s.n == 0 {
			s.t, s.n = t, pos+1
			ts.count++
			return
		}
		if s.t == t {
			s.n = pos + 1
			return
		}
		i = (i + 1) & ts.mask
	}
}

// Len returns the number of entries.
func (ts *tripleSet) Len() int { return ts.count }

// grow rehashes into a table of twice the size.
func (ts *tripleSet) grow() {
	old := ts.slots
	size := 2 * uint32(len(old))
	ts.slots = make([]tripleSlot, size)
	ts.mask = size - 1
	for i := range old {
		s := &old[i]
		if s.n == 0 {
			continue
		}
		j := ts.hash(s.t) & ts.mask
		for ts.slots[j].n != 0 {
			j = (j + 1) & ts.mask
		}
		ts.slots[j] = *s
	}
}
