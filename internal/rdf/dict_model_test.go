package rdf

import (
	"fmt"
	"slices"
	"testing"
)

// refDict is the reference model FuzzDict checks Dict against: a map for
// term → id and a slice for id → term, assigning ids in first-intern order.
type refDict struct {
	ids   map[Term]TermID
	terms []Term // terms[0] is the zero Term for NoTerm
}

func newRefDict() *refDict {
	return &refDict{ids: map[Term]TermID{}, terms: []Term{{}}}
}

func (r *refDict) intern(t Term) TermID {
	if id, ok := r.ids[t]; ok {
		return id
	}
	id := TermID(len(r.terms))
	r.ids[t] = id
	r.terms = append(r.terms, t)
	return id
}

func (r *refDict) term(id TermID) Term {
	if int(id) >= len(r.terms) {
		return Term{}
	}
	return r.terms[id]
}

// fuzzTerms is the universe a script byte picks from: terms whose equal
// values differ in kind, datatype or language, so the dictionary's key must
// tell them apart.
var fuzzTerms = func() (u [256]Term) {
	for b := range u {
		v := fmt.Sprintf("v%d", b>>3)
		switch b & 7 {
		case 0, 1:
			u[b] = NewIRI(v)
		case 2:
			u[b] = NewBlank(v)
		case 3:
			u[b] = NewString(v)
		case 4:
			u[b] = NewLangString(v, "en")
		case 5:
			u[b] = NewLangString(v, "fr")
		case 6:
			u[b] = NewTyped(v, XSDInteger)
		default:
			u[b] = NewString("")
		}
	}
	return u
}()

func fuzzTerm(b byte) Term { return fuzzTerms[b] }

// maxDictScript caps a script. The universe holds 256 terms, so a longer
// script adds repeats, not reach, and a short one keeps the fuzzer's input
// minimization quick.
const maxDictScript = 256

// runDictScript replays a fuzz script against a fresh Dict and the
// reference model. Each op is one byte (its low three bits pick the op)
// followed by its operands:
//
//	0, 1  Intern(term)
//	2     Lookup(term)
//	3     InternTriples(batch): a length byte, then (length mod 8) triples
//	      of three terms; the length's high nibble (mod the batch length
//	      plus one) is where the batch splits into two chunks
//	4     Term(id) for an id byte, which may run past Len
//	5     Len
//	6, 7  Intern then Term of the returned id
func runDictScript(t *testing.T, script []byte) {
	if len(script) > maxDictScript {
		script = script[:maxDictScript]
	}
	d := NewDict()
	ref := newRefDict()
	next := func() (byte, bool) {
		if len(script) == 0 {
			return 0, false
		}
		b := script[0]
		script = script[1:]
		return b, true
	}
	for {
		op, ok := next()
		if !ok {
			break
		}
		switch op & 7 {
		case 0, 1, 6, 7:
			b, ok := next()
			if !ok {
				break
			}
			tm := fuzzTerm(b)
			before := d.Len()
			got := d.Intern(tm)
			if want, known := ref.ids[tm]; known && got != want {
				t.Fatalf("Intern(%v) = %d, want its earlier id %d", tm, got, want)
			}
			if want := ref.intern(tm); got != want {
				// A miss takes the next id: ids follow first-intern order.
				t.Fatalf("Intern(%v) = %d, want %d (Len before %d)", tm, got, want, before)
			}
			if op&7 >= 6 {
				if back := d.Term(got); back != tm {
					t.Fatalf("Term(%d) = %v after Intern(%v)", got, back, tm)
				}
			}
		case 2:
			b, ok := next()
			if !ok {
				break
			}
			tm := fuzzTerm(b)
			got, found := d.Lookup(tm)
			want, known := ref.ids[tm]
			if found != known || got != want {
				t.Fatalf("Lookup(%v) = %d, %v; want %d, %v", tm, got, found, want, known)
			}
		case 3:
			n, ok := next()
			if !ok {
				break
			}
			batch := make([]Triple, 0, n&7)
			for i := 0; i < int(n&7); i++ {
				var tr [3]Term
				for j := range tr {
					b, _ := next()
					tr[j] = fuzzTerm(b)
				}
				batch = append(batch, Triple{S: tr[0], P: tr[1], O: tr[2]})
			}
			checkInternTriples(t, d, ref, batch, int(n>>4)%(len(batch)+1))
		case 4:
			b, ok := next()
			if !ok {
				break
			}
			id := TermID(b)
			if got, want := d.Term(id), ref.term(id); got != want {
				t.Fatalf("Term(%d) = %v, want %v", id, got, want)
			}
		case 5:
		}
		if got, want := d.Len(), len(ref.terms)-1; got != want {
			t.Fatalf("Len = %d, want %d", got, want)
		}
	}
	// Dense and round-tripping: every id 1..Len names the model's term, and
	// every term the model knows looks up to its one id.
	for id := TermID(1); int(id) <= d.Len(); id++ {
		if got, want := d.Term(id), ref.terms[id]; got != want {
			t.Fatalf("final Term(%d) = %v, want %v", id, got, want)
		}
	}
	for tm, want := range ref.ids {
		if got, ok := d.Lookup(tm); !ok || got != want {
			t.Fatalf("final Lookup(%v) = %d, %v; want %d", tm, got, ok, want)
		}
	}
}

// checkInternTriples interns batch through InternTriples, split into two
// chunks at cut, and checks it appends to dst exactly what a sequential
// Intern loop over the batch's terms would assign: a term interned before
// keeps its id, in-batch duplicates share one id, and the batch's new terms
// take the next ids in input order.
func checkInternTriples(t *testing.T, d *Dict, ref *refDict, batch []Triple, cut int) {
	t.Helper()
	dst := []TripleID{{S: 1, P: 2, O: 3}}
	got := d.InternTriples(dst, batch[:cut], batch[cut:])
	if len(got) != 1+len(batch) || got[0] != dst[0] {
		t.Fatalf("InternTriples appended %v to %v for %d triples", got, dst, len(batch))
	}
	for i, tr := range batch {
		want := TripleID{S: ref.intern(tr.S), P: ref.intern(tr.P), O: ref.intern(tr.O)}
		if got[1+i] != want {
			t.Fatalf("InternTriples[%d] %v = %v, want %v as a sequential Intern loop assigns", i, tr, got[1+i], want)
		}
	}
}

// internEach is a sequential Intern loop over terms.
func internEach(d *Dict, terms []Term) []TermID {
	ids := make([]TermID, len(terms))
	for i, tm := range terms {
		ids[i] = d.Intern(tm)
	}
	return ids
}

// runEncodedScript checks InternEncoded against an Intern loop on a twin
// dictionary. The script is a run of batches, each a mode byte (its high
// nibble is the batch length), then that many terms. The batch is encoded
// with AppendTermBinary, then spoiled by the mode's low two bits:
//
//	0  left whole: same ids, same Len
//	1  one trailing byte
//	2  the last byte cut off (a malformed last term)
//	3  one term more declared than the block holds
//
// A spoiled block must return an error and leave interned exactly the
// terms before the fault, as an Intern loop over them would. Last, the whole
// script is read as a raw block: InternEncoded must accept it exactly when
// it is n terms in their one encoding with no bytes to spare.
func runEncodedScript(t *testing.T, script []byte) {
	if len(script) > maxDictScript {
		script = script[:maxDictScript]
	}
	enc, twin := NewDict(), NewDict()
	for rest := script; len(rest) > 0; {
		mode := rest[0]
		k := min(int(mode>>4), len(rest)-1)
		batch := make([]Term, k)
		for i, b := range rest[1 : 1+k] {
			batch[i] = fuzzTerm(b)
		}
		rest = rest[1+k:]
		block, n, kept := encodeTermList(batch), k, batch
		switch mode & 3 {
		case 1:
			block = append(block, 0)
		case 2:
			if k == 0 {
				continue
			}
			block, kept = block[:len(block)-1], batch[:k-1]
		case 3:
			n++
		}
		got, err := enc.InternEncoded(string(block), n)
		want := internEach(twin, kept)
		if mode&3 != 0 {
			if err == nil {
				t.Fatalf("InternEncoded accepted a spoiled block (mode %d) of %v", mode&3, batch)
			}
		} else if err != nil {
			t.Fatalf("InternEncoded(%v): %v", batch, err)
		} else if !slices.Equal(got, want) {
			t.Fatalf("InternEncoded(%v) = %v, an Intern loop %v", batch, got, want)
		}
		if enc.Len() != twin.Len() {
			t.Fatalf("after batch %v (mode %d): Len %d, the Intern loop's twin %d", batch, mode&3, enc.Len(), twin.Len())
		}
	}
	for id := TermID(1); int(id) <= twin.Len(); id++ {
		if enc.Term(id) != twin.Term(id) {
			t.Fatalf("Term(%d) = %v, the Intern loop's twin %v", id, enc.Term(id), twin.Term(id))
		}
	}

	// The raw block's reference verdict: decode n terms and require each
	// to re-encode to the bytes it came from, with none left over.
	n := 0
	if len(script) > 0 {
		n = int(script[0] & 15)
	}
	raw := script[min(1, len(script)):]
	var terms []Term
	ok := true
	for off := 0; ok && len(terms) < n; {
		tm, adv, err := DecodeTermBinary(raw[off:])
		ok = err == nil && string(AppendTermBinary(nil, tm)) == string(raw[off:off+adv])
		off += adv
		terms = append(terms, tm)
		if len(terms) == n {
			ok = ok && off == len(raw)
		}
	}
	if n == 0 {
		ok = len(raw) == 0
	}
	enc, twin = NewDict(), NewDict()
	got, err := enc.InternEncoded(string(raw), n)
	if (err == nil) != ok {
		t.Fatalf("InternEncoded(%x, %d): error %v, want accepted %v", raw, n, err, ok)
	}
	if ok {
		if want := internEach(twin, terms); !slices.Equal(got, want) || enc.Len() != twin.Len() {
			t.Fatalf("InternEncoded(%x, %d) = %v, an Intern loop %v", raw, n, got, want)
		}
	}
}

func encodeTermList(terms []Term) []byte {
	var block []byte
	for _, tm := range terms {
		block = AppendTermBinary(block, tm)
	}
	return block
}

// FuzzDict is the differential test of Dict against refDict over scripts
// of Intern, Lookup, InternTriples (with in-batch duplicates), Term and
// Len, and of InternEncoded against an Intern loop on a twin dictionary.
func FuzzDict(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0, 1, 2, 1, 2, 9, 4, 1, 5})
	f.Add([]byte{3, 6, 10, 11, 10, 12, 11, 13, 4, 2, 4, 3, 0, 10, 0, 14})
	f.Add([]byte{0, 40, 3, 15, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 1, 3, 4, 40, 41, 40, 42, 6, 42, 2, 99})
	f.Add([]byte{3, 8, 0, 8, 16, 24, 32, 0, 8, 16, 3, 8, 16, 24, 32, 40, 48, 56, 64, 72, 7, 200, 4, 9})
	f.Add([]byte{1, 7, 1, 15, 1, 23, 3, 5, 7, 15, 23, 31, 39, 2, 31, 2, 200, 5})
	f.Add([]byte{0x30, 1, 2, 1, 0x21, 3, 3, 0x22, 9, 10, 0x13, 1, 0x40, 1, 4, 4, 2})
	f.Add([]byte{2, byte(KindIRI), 1, 'a', byte(KindIRI), 0x81, 0x00, 'a'})
	f.Fuzz(func(t *testing.T, script []byte) {
		runDictScript(t, script)
		runEncodedScript(t, script)
	})
}
