package linkset

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"alex/internal/rdf"
)

func lk(a, b uint32) Link { return Link{Left: rdf.TermID(a), Right: rdf.TermID(b)} }

func TestSetAddRemoveContains(t *testing.T) {
	s := New()
	if !s.Add(lk(1, 2)) {
		t.Error("first Add = false")
	}
	if s.Add(lk(1, 2)) {
		t.Error("duplicate Add = true")
	}
	if !s.Contains(lk(1, 2)) {
		t.Error("Contains = false")
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d", s.Len())
	}
	if !s.Remove(lk(1, 2)) {
		t.Error("Remove present = false")
	}
	if s.Remove(lk(1, 2)) {
		t.Error("Remove absent = true")
	}
	if s.Contains(lk(1, 2)) {
		t.Error("Contains after Remove = true")
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

func TestSetClone(t *testing.T) {
	s := FromLinks([]Link{lk(1, 1), lk(2, 2)})
	c := s.Clone()
	c.Add(lk(3, 3))
	if s.Len() != 2 || c.Len() != 3 {
		t.Errorf("clone not independent: s=%d c=%d", s.Len(), c.Len())
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
	q = Evaluate(truth.Clone(), truth)
	if q.Precision != 1 || q.Recall != 1 || q.FMeasure != 1 {
		t.Errorf("perfect: %+v", q)
	}
}

func TestEvaluateProperties(t *testing.T) {
	prop := func(cs, ts []uint16) bool {
		cand, truth := New(), New()
		for _, c := range cs {
			cand.Add(lk(uint32(c%50)+1, uint32(c%50)+1))
		}
		for _, g := range ts {
			truth.Add(lk(uint32(g%50)+1, uint32(g%50)+1))
		}
		q := Evaluate(cand, truth)
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

func TestSetConcurrency(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				l := lk(uint32(i), uint32(i))
				s.Add(l)
				s.Contains(l)
				if g%2 == 0 {
					s.Len()
				}
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != 100 {
		t.Errorf("Len = %d, want 100", s.Len())
	}
}

func TestLinkString(t *testing.T) {
	if lk(1, 2).String() == "" {
		t.Error("empty Link.String")
	}
}
