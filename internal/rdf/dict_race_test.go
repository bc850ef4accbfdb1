package rdf

import (
	"fmt"
	"sync"
	"testing"
)

// TestDictSerialIDOrder pins the id-assignment guarantee the loaders rely
// on: a serial caller gets dense ids in first-intern order.
func TestDictSerialIDOrder(t *testing.T) {
	d := NewDict()
	for i := 0; i < 100; i++ {
		id := d.Intern(NewIRI(fmt.Sprintf("http://x/%d", i)))
		if id != TermID(i+1) {
			t.Fatalf("serial intern %d assigned id %d, want %d", i, id, i+1)
		}
	}
	// Re-interning anything assigns nothing new.
	for i := 0; i < 100; i++ {
		if id := d.Intern(NewIRI(fmt.Sprintf("http://x/%d", i))); id != TermID(i+1) {
			t.Fatalf("re-intern %d gave id %d, want %d", i, id, i+1)
		}
	}
	if d.Len() != 100 {
		t.Fatalf("Len = %d, want 100", d.Len())
	}
}

// TestDictParallelInternOverlappingSets hammers the dictionary with
// goroutines interning overlapping term sets from different starting
// offsets, then asserts the ids are stable: every term got exactly one id,
// ids are dense 1..Len, and every id round-trips through Term.
func TestDictParallelInternOverlappingSets(t *testing.T) {
	d := NewDict()
	const (
		goroutines = 16
		universe   = 500
		perG       = 300 // overlapping windows of the universe
	)
	results := make([]map[Term]TermID, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got := make(map[Term]TermID, perG)
			for i := 0; i < perG; i++ {
				n := (g*37 + i) % universe
				var tm Term
				switch n % 3 {
				case 0:
					tm = NewIRI(fmt.Sprintf("http://x/e%d", n))
				case 1:
					tm = NewString(fmt.Sprintf("value %d", n))
				default:
					tm = NewTyped(fmt.Sprintf("%d", n), XSDInteger)
				}
				got[tm] = d.Intern(tm)
			}
			results[g] = got
		}(g)
	}
	wg.Wait()

	// Stable ids: all goroutines agree on every term's id.
	canonical := make(map[Term]TermID)
	for g, got := range results {
		for tm, id := range got {
			if prev, ok := canonical[tm]; ok && prev != id {
				t.Fatalf("goroutine %d got id %d for %v, another got %d", g, id, tm, prev)
			}
			canonical[tm] = id
		}
	}
	// Dense: Len matches the distinct count and every id 1..Len resolves.
	if d.Len() != len(canonical) {
		t.Fatalf("Len = %d, want %d distinct terms", d.Len(), len(canonical))
	}
	seen := make(map[TermID]bool)
	for tm, id := range canonical {
		if id == NoTerm || int(id) > d.Len() {
			t.Fatalf("id %d for %v outside dense range 1..%d", id, tm, d.Len())
		}
		if seen[id] {
			t.Fatalf("id %d assigned to two terms", id)
		}
		seen[id] = true
		if got := d.Term(id); got != tm {
			t.Fatalf("Term(%d) = %v, want %v", id, got, tm)
		}
	}
}

// TestDictConcurrentReadersWriters exercises the Lookup-then-Intern race
// and the lock-free Term/Len/Materialize reads while writers are appending
// (meaningful under -race).
func TestDictConcurrentReadersWriters(t *testing.T) {
	d := NewDict()
	const writers, readers, terms = 4, 4, 400
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < terms; i++ {
				tm := NewIRI(fmt.Sprintf("http://x/%d", (w+i)%terms))
				// The racy pattern the lock makes atomic: a failed Lookup
				// followed by Intern must still yield one id per term.
				if id, ok := d.Lookup(tm); ok {
					if id2 := d.Intern(tm); id2 != id {
						t.Errorf("Intern gave %d after Lookup saw %d", id2, id)
						return
					}
					continue
				}
				d.Intern(tm)
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < terms; i++ {
				n := d.Len()
				if n == 0 {
					continue
				}
				id := TermID(i%n + 1)
				if d.Term(id).IsZero() {
					t.Errorf("Term(%d) zero with Len=%d", id, n)
					return
				}
				d.Materialize(TripleID{S: id, P: id, O: id})
			}
		}()
	}
	wg.Wait()
	if d.Len() != terms {
		t.Fatalf("Len = %d, want %d", d.Len(), terms)
	}
}

// TestDictConcurrentBulkAndPoint mixes InternTriples batches (overlapping, with
// in-batch duplicates) with Intern, Lookup and lock-free Term reads, then
// asserts what racing callers must agree on: one id per term, ids dense in
// 1..Len, and every id round-tripping through Term (meaningful under -race).
func TestDictConcurrentBulkAndPoint(t *testing.T) {
	d := NewDict()
	const (
		universe = 600
		rounds   = 40
		batch    = 48
	)
	term := func(n int) Term {
		if n%2 == 0 {
			return NewIRI(fmt.Sprintf("http://x/e%d", n))
		}
		return NewString(fmt.Sprintf("e%d", n))
	}
	results := make([]map[Term]TermID, 6)
	var wg sync.WaitGroup
	for g := range results {
		got := map[Term]TermID{}
		results[g] = got
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				switch g % 3 {
				case 0: // bulk: a window of the universe in two chunks, every term thrice
					triples := make([]Triple, 0, batch)
					for i := 0; i < batch; i++ {
						tm := term((g*101 + r*batch + i) % universe)
						triples = append(triples, Triple{S: tm, P: tm, O: tm})
					}
					for i, ids := range d.InternTriples(nil, triples[:batch/2], triples[batch/2:]) {
						if ids.S != ids.P || ids.P != ids.O {
							t.Errorf("one term interned as %v", ids)
							return
						}
						got[triples[i].S] = ids.S
					}
				case 1: // point interns walking the universe backwards
					for i := 0; i < batch; i++ {
						tm := term(universe - 1 - (g*37+r*batch+i)%universe)
						got[tm] = d.Intern(tm)
					}
				default: // readers
					for i := 0; i < batch; i++ {
						tm := term((g*53 + r*batch + i) % universe)
						if id, ok := d.Lookup(tm); ok {
							got[tm] = id
							if back := d.Term(id); back != tm {
								t.Errorf("Term(%d) = %v after Lookup(%v)", id, back, tm)
								return
							}
						}
						if n := d.Len(); n > 0 && d.Term(TermID(i%n+1)).IsZero() {
							t.Errorf("Term(%d) zero with Len=%d", i%n+1, n)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()

	canonical := map[Term]TermID{}
	for g, got := range results {
		for tm, id := range got {
			if prev, ok := canonical[tm]; ok && prev != id {
				t.Fatalf("goroutine %d got id %d for %v, another got %d", g, id, tm, prev)
			}
			canonical[tm] = id
		}
	}
	// Readers only see interned terms, so the writers' terms are all of them.
	if d.Len() != len(canonical) {
		t.Fatalf("Len = %d, want %d distinct terms", d.Len(), len(canonical))
	}
	seen := make([]bool, d.Len()+1)
	for id := 1; id <= d.Len(); id++ {
		tm := d.Term(TermID(id))
		got, ok := d.Lookup(tm)
		if !ok || got != TermID(id) {
			t.Fatalf("Lookup(Term(%d)) = %d, %v", id, got, ok)
		}
		seen[id] = true
	}
	for tm, id := range canonical {
		if id == NoTerm || int(id) > d.Len() || !seen[id] {
			t.Fatalf("id %d for %v outside dense range 1..%d", id, tm, d.Len())
		}
		if got := d.Term(id); got != tm {
			t.Fatalf("Term(%d) = %v, want %v", id, got, tm)
		}
	}
}

// BenchmarkDictIntern measures single-goroutine interning over a warm
// dictionary (the repeat-term fast path: read lock + map hit).
func BenchmarkDictIntern(b *testing.B) {
	d := NewDict()
	terms := make([]Term, 1024)
	for i := range terms {
		terms[i] = NewIRI(fmt.Sprintf("http://x/e%d", i))
		d.Intern(terms[i])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Intern(terms[i%len(terms)])
	}
}

// BenchmarkDictInternParallel measures contended interning: every goroutine
// hammers the same warm term set, so every call takes the one read lock —
// a pure-contention microbenchmark of the hit path.
func BenchmarkDictInternParallel(b *testing.B) {
	d := NewDict()
	terms := make([]Term, 1024)
	for i := range terms {
		terms[i] = NewIRI(fmt.Sprintf("http://x/e%d", i))
		d.Intern(terms[i])
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			d.Intern(terms[i%len(terms)])
			i++
		}
	})
}

// BenchmarkDictTerm measures the lock-free id → term read, the innermost
// operation of the similarity scans.
func BenchmarkDictTerm(b *testing.B) {
	d := NewDict()
	for i := 0; i < 1024; i++ {
		d.Intern(NewIRI(fmt.Sprintf("http://x/e%d", i)))
	}
	n := TermID(d.Len())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Term(TermID(i)%n + 1)
	}
}
