package store

import (
	"math/rand"
	"testing"

	"alex/internal/rdf"
)

// TestTripleSetAgainstMap drives the flat table and a builtin map through
// the same randomized workload of inserts, each appended to a log unless
// the set already holds it, and checks they agree after every step. The
// key space is kept narrow so most inserts find their triple already held.
func TestTripleSetAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ts := newTripleSet(0)
	ref := make(map[rdf.TripleID]int32)
	var log []rdf.TripleID
	key := func() rdf.TripleID {
		return rdf.TripleID{
			S: rdf.TermID(rng.Intn(40) + 1),
			P: rdf.TermID(rng.Intn(8) + 1),
			O: rdf.TermID(rng.Intn(40) + 1),
		}
	}
	for step := 0; step < 20000; step++ {
		k := key()
		pos, held := ts.get(k, log)
		want, inRef := ref[k]
		if held != inRef || pos != want {
			t.Fatalf("step %d: get(%v) = (%d, %v), map has (%d, %v)", step, k, pos, held, want, inRef)
		}
		if !held {
			log = append(log, k)
			ts.add(k, int32(len(log)-1), log)
			ref[k] = int32(len(log) - 1)
		}
		if ts.Len() != len(ref) {
			t.Fatalf("step %d: Len() = %d, map has %d", step, ts.Len(), len(ref))
		}
	}
	for k, want := range ref {
		pos, ok := ts.get(k, log)
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
			if _, ok := ts.get(k, log); ok {
				t.Fatalf("get(%v) hit, want miss", k)
			}
		}
	}
}

// TestTripleSetGrowth fills well past the initial table size: every grow
// must keep each entry reachable at its position.
func TestTripleSetGrowth(t *testing.T) {
	ts := newTripleSet(0)
	const n = 5000
	var log []rdf.TripleID
	for i := 0; i < n; i++ {
		log = append(log, rdf.TripleID{S: rdf.TermID(i + 1), P: 1, O: rdf.TermID(i*7 + 1)})
		ts.add(log[i], int32(i), log)
	}
	if ts.Len() != n {
		t.Fatalf("Len() = %d after %d inserts", ts.Len(), n)
	}
	for i, k := range log {
		if pos, ok := ts.get(k, log); !ok || pos != int32(i) {
			t.Fatalf("get(%v) = (%d, %v), want (%d, true)", k, pos, ok, i)
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
	var log []rdf.TripleID
	for i := 0; i < n; i++ {
		log = append(log, rdf.TripleID{S: rdf.TermID(i + 1), P: 1, O: 1})
		ts.add(log[i], int32(i), log)
	}
	if len(ts.slots) != size {
		t.Fatalf("table grew from %d to %d slots under its own capHint", size, len(ts.slots))
	}
}
