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
// in first-intern order, InternTriples' batches included, so a serial caller
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

// keyBufSize is the stack buffer a term's intern key is built in; only a
// longer key is built on the heap.
const keyBufSize = 256

// Intern returns the id for t, assigning a fresh id on first sight. The
// check-then-insert is atomic: racing Intern calls for the same term return
// one id. A hit allocates nothing.
func (d *Dict) Intern(t Term) TermID {
	var buf [keyBufSize]byte
	key := AppendTermBinary(buf[:0], t)
	d.mu.RLock()
	id, ok := d.byKey[string(key)]
	d.mu.RUnlock()
	if ok {
		return id
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.internLocked(key)
}

// InternTriples interns the S, P and O terms of every triple of every
// chunk, in order, under one write lock, and appends the triples' ids to
// dst: exactly what an Intern loop over the terms would assign. No string
// the dictionary keeps points into the chunks: a new term is stored as one
// copy of its key.
func (d *Dict) InternTriples(dst []TripleID, chunks ...[]Triple) []TripleID {
	var buf [keyBufSize]byte
	id := func(t Term) TermID { return d.internLocked(AppendTermBinary(buf[:0], t)) }
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, ts := range chunks {
		for _, t := range ts {
			dst = append(dst, TripleID{S: id(t.S), P: id(t.P), O: id(t.O)})
		}
	}
	return dst
}

// internLocked returns the id of the term whose key is key, assigning the
// next id on first sight. The caller holds the write lock. A new term costs
// one allocation: a copy of key, which becomes the map key and, decoded in
// place, the stored term's strings, so the dictionary shares no bytes with
// the caller's.
func (d *Dict) internLocked(key []byte) TermID {
	if id, ok := d.byKey[string(key)]; ok {
		return id
	}
	k := string(key)
	// k is an encoding this package just wrote, so it decodes.
	nt, _, _ := decodeTermAny(k)
	id := d.terms.append(nt)
	d.byKey[k] = id
	return id
}

// InternEncoded interns a block of n binary-encoded terms (see
// AppendTermBinary) under one write lock and returns their ids in block
// order: exactly what an Intern loop over the decoded terms assigns, into an
// empty dictionary or a shared one. A term's intern key IS its binary
// encoding, so the block needs no per-term key or decode allocation: new
// keys and terms are substrings of block, which the dictionary then pins.
// A malformed term or trailing bytes return an error; the terms before the
// fault stay interned, as an Intern loop over them would have left them.
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
// when the term has never been interned. It allocates nothing.
func (d *Dict) Lookup(t Term) (TermID, bool) {
	var buf [keyBufSize]byte
	key := AppendTermBinary(buf[:0], t)
	d.mu.RLock()
	defer d.mu.RUnlock()
	id, ok := d.byKey[string(key)]
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
