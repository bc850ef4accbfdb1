package store

import (
	"math/rand"
	"testing"

	"alex/internal/rdf"
)

// TestTripleSetAgainstMap drives the flat table and a builtin map through
// the same randomized insert/update workload and checks they agree after
// every put. The key space is kept narrow so updates collide with stored
// entries.
func TestTripleSetAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ts := newTripleSet(0)
	ref := make(map[rdf.TripleID]int32)
	key := func() rdf.TripleID {
		return rdf.TripleID{
			S: rdf.TermID(rng.Intn(40) + 1),
			P: rdf.TermID(rng.Intn(8) + 1),
			O: rdf.TermID(rng.Intn(40) + 1),
		}
	}
	for step := 0; step < 20000; step++ {
		k, pos := key(), int32(step)
		ts.put(k, pos)
		ref[k] = pos
		if ts.Len() != len(ref) {
			t.Fatalf("step %d: Len() = %d, map has %d", step, ts.Len(), len(ref))
		}
	}
	for k, want := range ref {
		pos, ok := ts.get(k)
		if !ok || pos != want {
			t.Fatalf("get(%v) = (%d, %v), want (%d, true)", k, pos, ok, want)
		}
	}
	// Every absent key in the space must miss.
	for s := 1; s <= 41; s++ {
		for p := 1; p <= 9; p++ {
			k := rdf.TripleID{S: rdf.TermID(s), P: rdf.TermID(p), O: 1}
			if _, inRef := ref[k]; inRef {
				continue
			}
			if _, ok := ts.get(k); ok {
				t.Fatalf("get(%v) hit, want miss", k)
			}
		}
	}
}

// TestTripleSetGrowth fills well past the initial table size, then updates
// half the entries in place: every grow must keep each entry reachable.
func TestTripleSetGrowth(t *testing.T) {
	ts := newTripleSet(0)
	const n = 5000
	at := func(i int) rdf.TripleID {
		return rdf.TripleID{S: rdf.TermID(i + 1), P: 1, O: rdf.TermID(i*7 + 1)}
	}
	for i := 0; i < n; i++ {
		ts.put(at(i), int32(i))
	}
	if ts.Len() != n {
		t.Fatalf("Len() = %d after %d inserts", ts.Len(), n)
	}
	for i := 0; i < n; i += 2 {
		ts.put(at(i), int32(i+n))
	}
	if ts.Len() != n {
		t.Fatalf("Len() = %d after updating half, want %d", ts.Len(), n)
	}
	for i := 0; i < n; i++ {
		pos, ok := ts.get(at(i))
		if !ok {
			t.Fatalf("get(%d) missed after update", i)
		}
		want := int32(i)
		if i%2 == 0 {
			want = int32(i + n)
		}
		if pos != want {
			t.Fatalf("get(%d) = %d, want %d", i, pos, want)
		}
	}
}

// TestTripleSetPresize checks that a presized table holds exactly capHint
// entries without growing — the snapshot-restore path relies on this to
// avoid rehashing during recovery.
func TestTripleSetPresize(t *testing.T) {
	const n = 10000
	ts := newTripleSet(n)
	size := len(ts.slots)
	for i := 0; i < n; i++ {
		ts.put(rdf.TripleID{S: rdf.TermID(i + 1), P: 1, O: 1}, int32(i))
	}
	if len(ts.slots) != size {
		t.Fatalf("table grew from %d to %d slots under its own capHint", size, len(ts.slots))
	}
}
