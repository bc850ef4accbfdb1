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

// append stores t and returns its index as the assigned id. The caller
// holds the Dict's write lock. A full last block is followed by a new one
// in a copy of the block list, so readers never see the list change.
func (ts *termStore) append(t Term) TermID {
	n := ts.n.Load()
	blocks := *ts.blocks.Load()
	if b := int(n >> termBlockBits); b == len(blocks) {
		grown := make([]*termBlock, b+1)
		copy(grown, blocks)
		grown[b] = new(termBlock)
		ts.blocks.Store(&grown)
		blocks = grown
	}
	blocks[n>>termBlockBits][n&termBlockMask] = t
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

// InternEncoded interns a block of n binary-encoded terms (see
// AppendTermBinary) under one write lock and returns their ids in block
// order: exactly what InternAll over the decoded terms assigns, into an
// empty dictionary or a shared one. A term's intern key IS its binary
// encoding, so the block needs no per-term key or decode allocation: new
// keys and terms are substrings of block, which the dictionary then pins.
// A malformed term or trailing bytes return an error; the terms before the
// fault stay interned, as InternAll over them would have left them.
func (d *Dict) InternEncoded(block string, n int) ([]TermID, error) {
	// Every encoded term takes at least two bytes, so a larger n cannot
	// be met and must not size an allocation.
	ids := make([]TermID, 0, min(n, len(block)/2))
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.byKey) == 0 {
		d.byKey = make(map[string]TermID, cap(ids))
	}
	off := 0
	for i := 0; i < n; i++ {
		t, adv, err := decodeTermAny(block[off:])
		if err != nil {
			return nil, fmt.Errorf("rdf: intern encoded term %d: %w", i, err)
		}
		k := block[off : off+adv]
		off += adv
		id, ok := d.byKey[k]
		if !ok {
			id = d.terms.append(t)
			d.byKey[k] = id
		}
		ids = append(ids, id)
	}
	if off != len(block) {
		return nil, fmt.Errorf("rdf: intern encoded: %d trailing bytes after %d terms", len(block)-off, n)
	}
	return ids, nil
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
