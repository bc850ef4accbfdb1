package rdf

import (
	"fmt"
	"sync"
	"testing"
)

func TestDictInternRoundTrip(t *testing.T) {
	d := NewDict()
	terms := []Term{
		NewIRI("http://x/a"),
		NewString("a"),
		NewBlank("a"),
		NewLangString("a", "en"),
		NewTyped("a", XSDInteger),
	}
	ids := make([]TermID, len(terms))
	for i, tm := range terms {
		ids[i] = d.Intern(tm)
		if ids[i] == NoTerm {
			t.Fatalf("Intern returned NoTerm for %v", tm)
		}
	}
	for i, tm := range terms {
		if got := d.Term(ids[i]); got != tm {
			t.Errorf("Term(%d) = %v, want %v", ids[i], got, tm)
		}
		if id2 := d.Intern(tm); id2 != ids[i] {
			t.Errorf("re-Intern gave %d, want %d", id2, ids[i])
		}
	}
	if d.Len() != len(terms) {
		t.Errorf("Len = %d, want %d", d.Len(), len(terms))
	}
}

func TestDictDistinctTermsDistinctIDs(t *testing.T) {
	d := NewDict()
	a := d.Intern(NewString("x"))
	b := d.Intern(NewIRI("x"))
	c := d.Intern(NewLangString("x", "en"))
	if a == b || b == c || a == c {
		t.Errorf("ids not distinct: %d %d %d", a, b, c)
	}
}

func TestDictLookup(t *testing.T) {
	d := NewDict()
	tm := NewIRI("http://x/a")
	if _, ok := d.Lookup(tm); ok {
		t.Error("Lookup found un-interned term")
	}
	id := d.Intern(tm)
	got, ok := d.Lookup(tm)
	if !ok || got != id {
		t.Errorf("Lookup = %d, %v; want %d, true", got, ok, id)
	}
}

func TestDictTermOutOfRange(t *testing.T) {
	d := NewDict()
	if !d.Term(NoTerm).IsZero() {
		t.Error("Term(NoTerm) should be zero")
	}
	if !d.Term(999).IsZero() {
		t.Error("Term(out of range) should be zero")
	}
}

func TestDictMaterialize(t *testing.T) {
	d := NewDict()
	tr := Triple{NewIRI("http://x/s"), NewIRI("http://x/p"), NewString("o")}
	tid := TripleID{d.Intern(tr.S), d.Intern(tr.P), d.Intern(tr.O)}
	if got := d.Materialize(tid); got != tr {
		t.Errorf("Materialize = %v, want %v", got, tr)
	}
}

func TestDictConcurrentIntern(t *testing.T) {
	d := NewDict()
	const goroutines = 8
	const perG = 200
	var wg sync.WaitGroup
	results := make([][]TermID, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ids := make([]TermID, perG)
			for i := 0; i < perG; i++ {
				// All goroutines intern the same sequence of terms.
				ids[i] = d.Intern(NewIRI(fmt.Sprintf("http://x/%d", i)))
			}
			results[g] = ids
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		for i := 0; i < perG; i++ {
			if results[g][i] != results[0][i] {
				t.Fatalf("goroutine %d got id %d for term %d, goroutine 0 got %d",
					g, results[g][i], i, results[0][i])
			}
		}
	}
	if d.Len() != perG {
		t.Errorf("Len = %d, want %d", d.Len(), perG)
	}
}

// TestDictHitAllocatesNothing: a Lookup hit, a Lookup miss and an Intern
// hit build the term's key on the stack and allocate nothing.
func TestDictHitAllocatesNothing(t *testing.T) {
	d := NewDict()
	known := NewLangString("a label of some length", "en")
	d.Intern(known)
	unknown := NewTyped("42", XSDInteger)
	for name, op := range map[string]func(){
		"Lookup hit":  func() { d.Lookup(known) },
		"Lookup miss": func() { d.Lookup(unknown) },
		"Intern hit":  func() { d.Intern(known) },
	} {
		if allocs := testing.AllocsPerRun(100, op); allocs != 0 {
			t.Errorf("%s allocates %v times, want 0", name, allocs)
		}
	}
}
