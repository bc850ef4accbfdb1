package linkset

import (
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"alex/internal/rdf"
)

func lk(a, b uint32) Link { return Link{Left: rdf.TermID(a), Right: rdf.TermID(b)} }

func TestSetAddRemoveContains(t *testing.T) {
	s := FromLinks([]Link{lk(1, 2), lk(1, 2)})
	if !s.Contains(lk(1, 2)) {
		t.Error("Contains = false")
	}
	if s.Contains(lk(2, 1)) || New().Contains(lk(1, 2)) {
		t.Error("Contains absent = true")
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestSetLinksSorted(t *testing.T) {
	s := FromLinks([]Link{lk(3, 1), lk(1, 2), lk(1, 1), lk(2, 9)})
	ls := s.Links()
	want := []Link{lk(1, 1), lk(1, 2), lk(2, 9), lk(3, 1)}
	if len(ls) != len(want) {
		t.Fatalf("Links = %v", ls)
	}
	for i := range want {
		if ls[i] != want[i] {
			t.Errorf("Links[%d] = %v, want %v", i, ls[i], want[i])
		}
	}
}

func TestEvaluate(t *testing.T) {
	truth := FromLinks([]Link{lk(1, 1), lk(2, 2), lk(3, 3), lk(4, 4)})
	cand := FromLinks([]Link{lk(1, 1), lk(2, 2), lk(9, 9)})
	q := Evaluate(cand, truth)
	if q.Correct != 2 || q.Candidates != 3 || q.Truth != 4 {
		t.Errorf("counts = %+v", q)
	}
	if math.Abs(q.Precision-2.0/3) > 1e-9 {
		t.Errorf("P = %g", q.Precision)
	}
	if math.Abs(q.Recall-0.5) > 1e-9 {
		t.Errorf("R = %g", q.Recall)
	}
	wantF := 2 * (2.0 / 3) * 0.5 / (2.0/3 + 0.5)
	if math.Abs(q.FMeasure-wantF) > 1e-9 {
		t.Errorf("F = %g, want %g", q.FMeasure, wantF)
	}
	if q.String() == "" {
		t.Error("Quality.String empty")
	}
}

func TestEvaluateEdgeCases(t *testing.T) {
	empty := New()
	truth := FromLinks([]Link{lk(1, 1)})
	q := Evaluate(empty, truth)
	if q.Precision != 0 || q.Recall != 0 || q.FMeasure != 0 {
		t.Errorf("empty candidates: %+v", q)
	}
	q = Evaluate(truth, empty)
	if q.Precision != 0 || q.Recall != 0 {
		t.Errorf("empty truth: %+v", q)
	}
	q = Evaluate(FromLinks(truth.Sorted()), truth)
	if q.Precision != 1 || q.Recall != 1 || q.FMeasure != 1 {
		t.Errorf("perfect: %+v", q)
	}
}

func TestEvaluateProperties(t *testing.T) {
	prop := func(cs, ts []uint16) bool {
		diagonal := func(ids []uint16) *Set {
			links := make([]Link, len(ids))
			for i, id := range ids {
				links[i] = lk(uint32(id%50)+1, uint32(id%50)+1)
			}
			return FromLinks(links)
		}
		q := Evaluate(diagonal(cs), diagonal(ts))
		if q.Precision < 0 || q.Precision > 1 || q.Recall < 0 || q.Recall > 1 {
			return false
		}
		if q.FMeasure < 0 || q.FMeasure > 1 {
			return false
		}
		// F is 0 iff P or R is 0; F never exceeds max(P, R).
		if q.FMeasure > math.Max(q.Precision, q.Recall)+1e-12 {
			return false
		}
		return q.Correct <= q.Candidates && q.Correct <= q.Truth
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestSetConcurrency hammers shared sets with readers only, under -race:
// reading a set must never write it, so no lazily built form may creep back
// into Set.
func TestSetConcurrency(t *testing.T) {
	links := make([]Link, 100)
	for i := range links {
		links[i] = lk(uint32(i%40), uint32(i))
	}
	sets := []*Set{New(), FromLinks(links), FromSorted(Sort(slices.Clone(links)))}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := sets[g%len(sets)]
			for i := 0; i < 200; i++ {
				l := links[i%len(links)]
				if s.Contains(l) != (s.Len() > 0) {
					t.Errorf("set of %d: Contains(%v) wrong", s.Len(), l)
					return
				}
				if len(s.Sorted()) != s.Len() {
					t.Errorf("Sorted has %d links, Len %d", len(s.Sorted()), s.Len())
					return
				}
				if q := Evaluate(s, s); q.Correct != s.Len() {
					t.Errorf("Evaluate(s, s) = %+v", q)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestLoadSameAs reads a file with a repeated sameAs link and a triple of
// another predicate: one link, the other triple skipped. A malformed file
// fails with an error that names it.
func TestLoadSameAs(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "links.nt")
	const sameAs = " <" + rdf.OWLSameAs + "> "
	nt := "<http://a/x>" + sameAs + "<http://b/x> .\n" +
		"<http://a/x> <http://a/name> \"x\" .\n" +
		"<http://a/x>" + sameAs + "<http://b/x> .\n"
	if err := os.WriteFile(path, []byte(nt), 0o644); err != nil {
		t.Fatal(err)
	}
	dict := rdf.NewDict()
	s, err := LoadSameAs(dict, path)
	if err != nil {
		t.Fatal(err)
	}
	want := Link{Left: dict.InternIRI("http://a/x"), Right: dict.InternIRI("http://b/x")}
	if got := s.Sorted(); !slices.Equal(got, []Link{want}) {
		t.Errorf("LoadSameAs = %v, want [%v]", got, want)
	}
	if _, ok := dict.Lookup(rdf.NewString("x")); ok {
		t.Error("the object of a skipped triple was interned")
	}

	bad := filepath.Join(dir, "bad.nt")
	if err := os.WriteFile(bad, []byte("<http://a/x>"+sameAs+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSameAs(rdf.NewDict(), bad); err == nil || !strings.Contains(err.Error(), bad) {
		t.Errorf("malformed file: err = %v, want one naming %s", err, bad)
	}
}

func TestLinkString(t *testing.T) {
	if lk(1, 2).String() == "" {
		t.Error("empty Link.String")
	}
}
