package store

import "alex/internal/rdf"

// tripleSet maps each triple to its position in the insertion log.
// It replaces a map[rdf.TripleID]int32 on the store's hottest write path:
// an open-addressing table with linear probing over flat 4-byte slots that
// hold log positions, not triples — a probe compares the log's triple at
// the slot's position, so the table costs 4 bytes a slot. The slot array
// holds no pointers, so the GC never scans it — snapshot recovery and bulk
// load spend a large share of their time on exactly this dedup table.
//
// Every method takes the log the positions index. Concurrency contract is
// the caller's, same as the map it replaced: every access happens under
// Store.mu.
type tripleSet struct {
	// slots[i] is 0 for an empty slot and pos+1 for an entry. The zero
	// slot value means empty, so a fresh table needs no initialization
	// pass. Entries are never removed.
	slots []int32
	mask  uint32
	count int
}

// newTripleSet sizes the table so capHint entries stay under the 3/4
// load factor that keeps probe chains short.
func newTripleSet(capHint int) *tripleSet {
	size := uint32(16)
	for int(size)*3 < capHint*4 {
		size <<= 1
	}
	return &tripleSet{slots: make([]int32, size), mask: size - 1}
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

// get returns the position of t in log and whether the set holds it.
func (ts *tripleSet) get(t rdf.TripleID, log []rdf.TripleID) (int32, bool) {
	for i := ts.hash(t) & ts.mask; ; i = (i + 1) & ts.mask {
		n := ts.slots[i]
		if n == 0 {
			return 0, false
		}
		if log[n-1] == t {
			return n - 1, true
		}
	}
}

// add records that log[pos] is t, which the set does not hold yet.
func (ts *tripleSet) add(t rdf.TripleID, pos int32, log []rdf.TripleID) {
	if (ts.count+1)*4 > len(ts.slots)*3 {
		ts.grow(log)
	}
	ts.insert(ts.hash(t), pos)
	ts.count++
}

// insert puts pos in the first empty slot from h on.
func (ts *tripleSet) insert(h uint32, pos int32) {
	i := h & ts.mask
	for ts.slots[i] != 0 {
		i = (i + 1) & ts.mask
	}
	ts.slots[i] = pos + 1
}

// Len returns the number of entries.
func (ts *tripleSet) Len() int { return ts.count }

// grow rehashes into a table of twice the size.
func (ts *tripleSet) grow(log []rdf.TripleID) {
	old := ts.slots
	size := 2 * uint32(len(old))
	ts.slots = make([]int32, size)
	ts.mask = size - 1
	for _, n := range old {
		if n != 0 {
			ts.insert(ts.hash(log[n-1]), n-1)
		}
	}
}
