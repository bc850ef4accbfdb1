package rdf

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Dict interns Terms to dense TermIDs. IDs start at 1; 0 is reserved for
// NoTerm. A Dict is safe for concurrent use.
//
// One RWMutex guards the key → id map and every append to the term store,
// so check-then-insert is atomic: for any term, exactly one id is ever
// assigned, even when many goroutines race to intern it — concurrent Intern
// calls for the same term all return that single id, and a Lookup that
// observes an id observes the same id every Intern returns. Ids are assigned
// in first-intern order, InternAll's batches included, so a serial caller
// gets the same dense 1..N assignment whichever of the two it calls.
//
// Term, Len and Materialize read the term store without taking any lock
// (the store publishes appends with atomics), which keeps the similarity
// scans that materialize terms in tight loops off the interning lock
// entirely.
//
// A single Dict is typically shared by all data sets participating in a
// linking task so that TermIDs are comparable across stores.
type Dict struct {
	mu    sync.RWMutex
	byKey map[string]TermID
	terms termStore
}

// termStore is an append-only id → Term array, stored in fixed-size blocks
// so readers never observe a reallocating backing array. Appends happen
// under the owning Dict's write lock; readers are lock-free: an element is
// written before the length is published, and readers load the length
// before the element, so the atomics order every read after the write it
// observes.
type termStore struct {
	blocks atomic.Pointer[[]*termBlock]
	n      atomic.Int64 // published length, including the slot-0 sentinel
}

const (
	termBlockBits = 10
	termBlockSize = 1 << termBlockBits
	termBlockMask = termBlockSize - 1
)

type termBlock [termBlockSize]Term

// grow makes room for n more terms past the published length and returns
// the blocks to write them into.
func (ts *termStore) grow(n int) []*termBlock {
	blocks := *ts.blocks.Load()
	need := (int(ts.n.Load()) + n + termBlockMask) >> termBlockBits
	if need > len(blocks) {
		grown := make([]*termBlock, need)
		copy(grown, blocks)
		for i := len(blocks); i < need; i++ {
			grown[i] = new(termBlock)
		}
		ts.blocks.Store(&grown)
		blocks = grown
	}
	return blocks
}

// append stores t and returns its index as the assigned id. The caller
// holds the Dict's write lock.
func (ts *termStore) append(t Term) TermID {
	n := ts.n.Load()
	ts.grow(1)[n>>termBlockBits][n&termBlockMask] = t
	ts.n.Store(n + 1)
	return TermID(n)
}

// get returns the term at id; ok is false past the published length.
func (ts *termStore) get(id TermID) (Term, bool) {
	n := ts.n.Load()
	if int64(id) >= n {
		return Term{}, false
	}
	blocks := *ts.blocks.Load()
	return blocks[id>>termBlockBits][id&termBlockMask], true
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	d := &Dict{byKey: make(map[string]TermID)}
	blocks := make([]*termBlock, 0, 8)
	d.terms.blocks.Store(&blocks)
	d.terms.append(Term{}) // slot 0 is the zero Term for NoTerm
	return d
}

// Intern returns the id for t, assigning a fresh id on first sight. The
// check-then-insert is atomic: racing Intern calls for the same term return
// one id.
func (d *Dict) Intern(t Term) TermID {
	k := t.key()
	d.mu.RLock()
	id, ok := d.byKey[k]
	d.mu.RUnlock()
	if ok {
		return id
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok = d.byKey[k]; ok {
		return id
	}
	id = d.terms.append(t)
	d.byKey[k] = id
	return id
}

// InternAll interns every term under one write lock and returns the ids in
// input order. It assigns exactly what a sequential Intern loop over terms
// would: misses take the next ids in input order. Keys are built in one
// reused buffer, so only the keys of new terms are allocated.
func (d *Dict) InternAll(terms []Term) []TermID {
	ids := make([]TermID, len(terms))
	var key []byte
	d.mu.Lock()
	defer d.mu.Unlock()
	for i, t := range terms {
		key = AppendTermBinary(key[:0], t)
		id, ok := d.byKey[string(key)]
		if !ok {
			id = d.terms.append(t)
			d.byKey[string(key)] = id
		}
		ids[i] = id
	}
	return ids
}

// BulkInternEncoded interns a whole block of binary-encoded terms (see
// AppendTermBinary) into an EMPTY dictionary, assigning ids 1..n in
// encoding order. It reports false — touching nothing — when the
// dictionary already holds terms, and the caller falls back to the
// general path. Because a term's intern key IS its binary encoding,
// decoding goes straight into the term store and the keys alias block's
// memory: the whole block costs no per-term allocation and no key
// lookups. This is what makes snapshot recovery into a fresh dictionary
// an array-building exercise. A malformed block, a duplicate term or
// trailing bytes return an error; the already-interned prefix stays
// fully consistent (every published id resolves, every key maps to a
// published id).
func (d *Dict) BulkInternEncoded(block string, n int) (bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	ts := &d.terms
	if ts.n.Load() != 1 {
		return false, nil
	}
	d.byKey = make(map[string]TermID, n)
	blocks := ts.grow(n)
	off := 0
	for i := 0; i < n; i++ {
		t, adv, err := decodeTermAny(block[off:])
		if err != nil {
			ts.n.Store(int64(i) + 1)
			return true, fmt.Errorf("rdf: bulk intern term %d: %w", i, err)
		}
		at := int64(i) + 1
		blocks[at>>termBlockBits][at&termBlockMask] = t
		k := block[off : off+adv]
		off += adv
		before := len(d.byKey)
		d.byKey[k] = TermID(at)
		if len(d.byKey) == before {
			// k now maps to this term's id; publish through it so the
			// mapping resolves, then reject the block.
			ts.n.Store(at + 1)
			return true, fmt.Errorf("rdf: bulk intern term %d: duplicate term", i)
		}
	}
	ts.n.Store(int64(n) + 1)
	if off != len(block) {
		return true, fmt.Errorf("rdf: bulk intern: %d trailing bytes after %d terms", len(block)-off, n)
	}
	return true, nil
}

// InternIRI interns an IRI term given its string.
func (d *Dict) InternIRI(iri string) TermID { return d.Intern(NewIRI(iri)) }

// Lookup returns the id for t without interning. The second return is false
// when the term has never been interned.
func (d *Dict) Lookup(t Term) (TermID, bool) {
	k := t.key()
	d.mu.RLock()
	defer d.mu.RUnlock()
	id, ok := d.byKey[k]
	return id, ok
}

// Term returns the term for an id. It returns the zero Term for NoTerm or
// out-of-range ids. It takes no lock.
func (d *Dict) Term(id TermID) Term {
	t, _ := d.terms.get(id)
	return t
}

// Len returns the number of interned terms.
func (d *Dict) Len() int {
	return int(d.terms.n.Load()) - 1
}

// Materialize converts a TripleID back to a Triple.
func (d *Dict) Materialize(t TripleID) Triple {
	return Triple{S: d.Term(t.S), P: d.Term(t.P), O: d.Term(t.O)}
}
