package linkset

import (
	"testing"
	"testing/quick"

	"alex/internal/rdf"
)

func sc(l, r uint32, score float64) Scored {
	return Scored{Link: lk(l, r), Score: score}
}

func TestMutualBestKeepsReciprocalPairs(t *testing.T) {
	scored := []Scored{
		sc(1, 10, 0.9), // mutual best
		sc(1, 11, 0.5), // 1 prefers 10
		sc(2, 11, 0.8), // mutual best
		sc(3, 10, 0.7), // 10 prefers 1
	}
	out := MutualBest(scored)
	if len(out) != 2 {
		t.Fatalf("MutualBest = %v", out)
	}
	if out[0].Link != lk(1, 10) || out[1].Link != lk(2, 11) {
		t.Errorf("MutualBest = %v", out)
	}
}

func TestMutualBestEmptyAndSingle(t *testing.T) {
	if out := MutualBest(nil); len(out) != 0 {
		t.Errorf("nil input = %v", out)
	}
	out := MutualBest([]Scored{sc(1, 1, 0.5)})
	if len(out) != 1 {
		t.Errorf("single input = %v", out)
	}
}

func TestMutualBestTieDeterministic(t *testing.T) {
	// Two right candidates with equal score for the same left entity: the
	// lower-id pair wins both runs.
	scored := []Scored{sc(1, 10, 0.9), sc(1, 11, 0.9)}
	a := MutualBest(scored)
	b := MutualBest([]Scored{scored[1], scored[0]}) // reversed input order
	if len(a) != 1 || len(b) != 1 || a[0].Link != b[0].Link {
		t.Errorf("tie not deterministic: %v vs %v", a, b)
	}
	if a[0].Link != lk(1, 10) {
		t.Errorf("tie winner = %v, want (1,10)", a[0].Link)
	}
}

func TestMutualBestInjectiveProperty(t *testing.T) {
	prop := func(pairs []uint16, scores []uint8) bool {
		if len(pairs) == 0 || len(scores) == 0 {
			return true
		}
		var scored []Scored
		for i, p := range pairs {
			scored = append(scored, Scored{
				Link:  lk(uint32(p%16)+1, uint32(p/16%16)+1),
				Score: float64(scores[i%len(scores)]) / 255,
			})
		}
		out := MutualBest(scored)
		seenL := map[rdf.TermID]bool{}
		seenR := map[rdf.TermID]bool{}
		for _, s := range out {
			if seenL[s.Link.Left] || seenR[s.Link.Right] {
				return false // not injective
			}
			seenL[s.Link.Left] = true
			seenR[s.Link.Right] = true
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestConflicts(t *testing.T) {
	s := FromLinks([]Link{
		lk(1, 10), lk(1, 11), // left conflict on 1
		lk(2, 12),
		lk(3, 12), // right conflict on 12 (with 2)
	})
	conflicts := Conflicts(s)
	if len(conflicts) != 2 {
		t.Fatalf("Conflicts = %+v", conflicts)
	}
	left := conflicts[0]
	if left.Side != "left" || left.Entity != 1 || len(left.Partners) != 2 {
		t.Errorf("left conflict = %+v", left)
	}
	right := conflicts[1]
	if right.Side != "right" || right.Entity != 12 || len(right.Partners) != 2 {
		t.Errorf("right conflict = %+v", right)
	}
}

func TestConflictsCleanSet(t *testing.T) {
	s := FromLinks([]Link{lk(1, 10), lk(2, 11), lk(3, 12)})
	if got := Conflicts(s); len(got) != 0 {
		t.Errorf("clean set conflicts = %v", got)
	}
	if got := Conflicts(New()); len(got) != 0 {
		t.Errorf("empty set conflicts = %v", got)
	}
}

func TestMutualBestResolvesAllConflicts(t *testing.T) {
	scored := []Scored{
		sc(1, 10, 0.9), sc(1, 11, 0.8), sc(2, 10, 0.7), sc(2, 11, 0.95),
		sc(3, 12, 0.5), sc(4, 12, 0.6),
	}
	out := MutualBest(scored)
	links := make([]Link, len(out))
	for i, s := range out {
		links[i] = s.Link
	}
	if got := Conflicts(FromLinks(links)); len(got) != 0 {
		t.Errorf("MutualBest output still has conflicts: %v", got)
	}
}
