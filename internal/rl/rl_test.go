package rl

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// mustAction consults the ε-greedy policy for a state known to have actions,
// failing the test on the (impossible there) ErrNoActions.
func mustAction[A comparable](t *testing.T, p *EpsilonGreedy[A], s uint32, actions []A) A {
	t.Helper()
	a, err := p.Action(s, actions)
	if err != nil {
		t.Fatalf("Action(%v, %v): %v", s, actions, err)
	}
	return a
}

func TestQTableAppendAndQ(t *testing.T) {
	var q QTable
	if _, ok := q.Q(3); ok {
		t.Error("Q defined before any return")
	}
	q.Append(3, 1)
	q.Append(3, 3)
	v, ok := q.Q(3)
	if !ok || v != 2 {
		t.Errorf("Q = %g, %v; want 2, true", v, ok)
	}
	if q.Visits(3) != 2 {
		t.Errorf("Visits = %d", q.Visits(3))
	}
	if q.Visits(1) != 0 || q.Visits(NoID) != 0 {
		t.Errorf("Visits unseen = %d, NoID = %d", q.Visits(1), q.Visits(NoID))
	}
	if q.Len() != 1 {
		t.Errorf("Len = %d", q.Len())
	}
}

func TestQTableBest(t *testing.T) {
	var q QTable
	if _, ok := q.Best([]uint32{1, 2, 3}); ok {
		t.Error("Best defined with no data")
	}
	q.Append(1, 0.5)
	q.Append(2, 2.0)
	q.Append(3, -1.0)
	best, ok := q.Best([]uint32{1, 2, 3})
	if !ok || best != 1 {
		t.Errorf("Best = %d, %v; want index 1", best, ok)
	}
	// Candidates restrict the argmax.
	best, ok = q.Best([]uint32{1, 3})
	if !ok || best != 0 {
		t.Errorf("restricted Best = %d", best)
	}
	// Unknown pairs among candidates are skipped, not treated as zero.
	var q2 QTable
	q2.Append(1, -5)
	best, ok = q2.Best([]uint32{9, NoID, 1})
	if !ok || best != 2 {
		t.Errorf("Best with undefined candidates = %d, %v", best, ok)
	}
}

func TestQTableBestTieBreaksFirst(t *testing.T) {
	var q QTable
	q.Append(2, 1)
	q.Append(1, 1)
	best, _ := q.Best([]uint32{1, 2})
	if best != 0 {
		t.Errorf("tie break = %d, want first candidate", best)
	}
}

func TestQTableAverageProperty(t *testing.T) {
	prop := func(rewards []float64) bool {
		if len(rewards) == 0 {
			return true
		}
		var q QTable
		sum := 0.0
		n := 0
		for _, r := range rewards {
			if math.IsNaN(r) || math.IsInf(r, 0) {
				continue
			}
			// Bound magnitudes: rewards in ALEX are small integers; huge
			// inputs only test float overflow, not averaging.
			r = math.Mod(r, 1000)
			q.Append(0, r)
			sum += r
			n++
		}
		if n == 0 {
			return true
		}
		v, ok := q.Q(0)
		return ok && math.Abs(v-sum/float64(n)) < 1e-6*math.Max(1, math.Abs(sum))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEpsilonGreedyStableArbitraryAction(t *testing.T) {
	p := NewEpsilonGreedy[int](0, rand.New(rand.NewSource(1)))
	a1 := mustAction[int](t, p, 0, []int{7, 8, 9})
	for i := 0; i < 10; i++ {
		if a2 := mustAction[int](t, p, 0, []int{7, 8, 9}); a2 != a1 {
			t.Fatalf("arbitrary action changed: %d then %d", a1, a2)
		}
	}
}

func TestEpsilonGreedyArbitraryActionUnbiased(t *testing.T) {
	// Across many fresh states, the arbitrary initial action must spread
	// over the whole action set, not collapse onto one index.
	p := NewEpsilonGreedy[int](0, rand.New(rand.NewSource(5)))
	counts := map[int]int{}
	for s := uint32(0); s < 300; s++ {
		counts[mustAction[int](t, p, s, []int{1, 2, 3})]++
	}
	for a := 1; a <= 3; a++ {
		if counts[a] < 50 {
			t.Errorf("action %d chosen %d/300 times, want roughly uniform", a, counts[a])
		}
	}
}

func TestEpsilonGreedyFollowsImprovedAction(t *testing.T) {
	p := NewEpsilonGreedy[int](0, rand.New(rand.NewSource(1)))
	p.Improve(0, 9)
	for i := 0; i < 10; i++ {
		if got := mustAction[int](t, p, 0, []int{7, 8, 9}); got != 9 {
			t.Fatalf("greedy action = %d, want 9", got)
		}
	}
	g, ok := p.Greedy(0)
	if !ok || g != 9 {
		t.Errorf("Greedy = %d, %v", g, ok)
	}
}

func TestEpsilonGreedyExplores(t *testing.T) {
	p := NewEpsilonGreedy[int](0.5, rand.New(rand.NewSource(42)))
	p.Improve(0, 1)
	counts := map[int]int{}
	const n = 4000
	for i := 0; i < n; i++ {
		counts[mustAction[int](t, p, 0, []int{1, 2, 3, 4})]++
	}
	// Expected: P(1) = 1-ε+ε/4 = 0.625, others 0.125 each.
	if f := float64(counts[1]) / n; math.Abs(f-0.625) > 0.05 {
		t.Errorf("greedy frequency = %g, want ~0.625", f)
	}
	for a := 2; a <= 4; a++ {
		if counts[a] == 0 {
			t.Errorf("action %d never explored", a)
		}
		if f := float64(counts[a]) / n; math.Abs(f-0.125) > 0.04 {
			t.Errorf("action %d frequency = %g, want ~0.125", a, f)
		}
	}
}

func TestEpsilonGreedyProb(t *testing.T) {
	p := NewEpsilonGreedy[int](0.2, rand.New(rand.NewSource(1)))
	p.Improve(0, 1)
	actions := []int{1, 2, 3, 4}
	if got := p.Prob(0, 1, actions); math.Abs(got-(0.8+0.05)) > 1e-9 {
		t.Errorf("Prob(greedy) = %g", got)
	}
	if got := p.Prob(0, 2, actions); math.Abs(got-0.05) > 1e-9 {
		t.Errorf("Prob(non-greedy) = %g", got)
	}
	// Probabilities sum to 1 over A(s).
	sum := 0.0
	for _, a := range actions {
		sum += p.Prob(0, a, actions)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("probabilities sum to %g", sum)
	}
	if p.Prob(0, 1, nil) != 0 {
		t.Error("Prob with empty action set should be 0")
	}
	// Un-improved state: first candidate acts as greedy.
	if got := p.Prob(1, 5, []int{5, 6}); math.Abs(got-(0.8+0.1)) > 1e-9 {
		t.Errorf("Prob un-improved greedy = %g", got)
	}
}

func TestEpsilonGreedyEveryActionPositiveProb(t *testing.T) {
	// The paper's continuous-exploration invariant: π(s,a) ≥ ε/|A(s)| > 0.
	prop := func(eps float64, nActions uint8) bool {
		if math.IsNaN(eps) {
			return true
		}
		eps = math.Abs(math.Mod(eps, 1))
		if eps == 0 {
			eps = 0.1
		}
		n := int(nActions%8) + 1
		p := NewEpsilonGreedy[int](eps, rand.New(rand.NewSource(3)))
		actions := make([]int, n)
		for i := range actions {
			actions[i] = i
		}
		p.Improve(0, 0)
		minProb := eps / float64(n)
		for _, a := range actions {
			if p.Prob(0, a, actions) < minProb-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEpsilonGreedyGreedyGone(t *testing.T) {
	p := NewEpsilonGreedy[int](0, rand.New(rand.NewSource(1)))
	p.Improve(0, 99)
	if got := mustAction[int](t, p, 0, []int{1, 2}); got != 1 {
		t.Errorf("vanished greedy fallback = %d, want 1", got)
	}
}

func TestEpsilonGreedyErrNoActionsOnEmpty(t *testing.T) {
	// Regression: an empty action set must surface rl.ErrNoActions (this
	// used to panic), without touching the policy's state.
	p := NewEpsilonGreedy[int](0.1, rand.New(rand.NewSource(1)))
	a, err := p.Action(0, nil)
	if !errors.Is(err, ErrNoActions) {
		t.Fatalf("Action on empty set: err = %v, want ErrNoActions", err)
	}
	if a != 0 {
		t.Errorf("Action on empty set returned %d, want the zero action", a)
	}
	if _, seen := p.Greedy(0); seen {
		t.Error("failed Action recorded the state as seen")
	}
}

func TestEpsilonGreedyLen(t *testing.T) {
	p := NewEpsilonGreedy[int](0.1, rand.New(rand.NewSource(1)))
	p.Improve(0, 1)
	p.Improve(1, 2)
	p.Improve(0, 3)
	if p.Len() != 2 {
		t.Errorf("Len = %d", p.Len())
	}
}

func TestFirstVisitTracker(t *testing.T) {
	tr := NewFirstVisitTracker()
	if !tr.FirstVisit(0) {
		t.Error("first visit = false")
	}
	if tr.FirstVisit(0) {
		t.Error("second visit = true")
	}
	if !tr.FirstVisit(1) {
		t.Error("different state first visit = false")
	}
	if tr.Len() != 2 || !slices.Equal(tr.Visited(), []uint32{0, 1}) {
		t.Errorf("Len = %d, Visited = %v", tr.Len(), tr.Visited())
	}
	tr.Reset()
	if !tr.FirstVisit(0) {
		t.Error("visit after Reset = false (should be a new first visit)")
	}
	// When the epoch counter wraps, no old stamp may read as current.
	tr.epoch = ^uint32(0)
	tr.FirstVisit(1)
	tr.Reset()
	if !tr.FirstVisit(1) || !tr.FirstVisit(0) {
		t.Error("a state visited before the epoch wrapped reads as visited after it")
	}
}

// Policy-improvement soundness on a toy problem: a 1-state bandit with one
// good and one bad action must converge to the good action within a few
// episodes (the paper's §5 guarantee instantiated).
func TestPolicyIterationConvergesOnBandit(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var q QTable
	p := NewEpsilonGreedy[int](0.1, rng)
	// One state; the pair of action a has id a. Action 1 pays +1, action
	// 0 pays -1.
	actions, pairs := []int{0, 1}, []uint32{0, 1}
	for episode := 0; episode < 20; episode++ {
		for step := 0; step < 50; step++ {
			a := mustAction[int](t, p, 0, actions)
			reward := -1.0
			if a == 1 {
				reward = 1.0
			}
			q.Append(uint32(a), reward)
		}
		if best, ok := q.Best(pairs); ok {
			p.Improve(0, actions[best])
		}
	}
	if g, _ := p.Greedy(0); g != 1 {
		t.Errorf("converged greedy action = %d, want 1", g)
	}
	v1, _ := q.Q(1)
	v0, _ := q.Q(0)
	if v1 <= v0 {
		t.Errorf("Q(1)=%g not above Q(0)=%g", v1, v0)
	}
}

func TestSortedKeys(t *testing.T) {
	m := map[int]string{3: "c", 1: "a", 2: "b"}
	keys := SortedKeys(m)
	if len(keys) != 3 || keys[0] != 1 || keys[2] != 3 {
		t.Errorf("SortedKeys = %v", keys)
	}
}

func TestQTableBestOptimistic(t *testing.T) {
	var q QTable
	if _, ok := q.BestOptimistic(nil, 0); ok {
		t.Error("empty candidates returned ok")
	}
	// Only tried pair is bad: the untried one (default 0) must win.
	q.Append(1, -1)
	best, ok := q.BestOptimistic([]uint32{1, 2}, 0)
	if !ok || best != 1 {
		t.Errorf("BestOptimistic = %d, %v; want index 1", best, ok)
	}
	// So must a pair that was never interned.
	if best, _ = q.BestOptimistic([]uint32{1, NoID}, 0); best != 1 {
		t.Errorf("BestOptimistic with NoID = %d, want index 1", best)
	}
	// A good tried pair beats the default.
	q.Append(3, 0.5)
	best, _ = q.BestOptimistic([]uint32{1, 2, 3}, 0)
	if best != 2 {
		t.Errorf("BestOptimistic = %d, want index 2", best)
	}
	// With a pessimistic default, tried-but-mediocre wins over untried.
	best, _ = q.BestOptimistic([]uint32{1, 2}, -5)
	if best != 0 {
		t.Errorf("pessimistic BestOptimistic = %d, want index 0", best)
	}
}

func TestQTableEntriesAndLoad(t *testing.T) {
	var q QTable
	q.Append(4, 2)
	q.Append(4, 4)
	q.Append(1, -1)
	type entry struct {
		id    uint32
		sum   float64
		count int
	}
	var entries []entry
	q.Each(func(id uint32, sum float64, count int) { entries = append(entries, entry{id, sum, count}) })
	if len(entries) != 2 || entries[0].id != 1 || entries[1].id != 4 {
		t.Fatalf("Each = %v, want ids 1 and 4 in order", entries)
	}
	// Round trip into a fresh table.
	var q2 QTable
	for _, e := range entries {
		q2.Load(e.id, e.sum, e.count)
	}
	for _, e := range entries {
		v1, _ := q.Q(e.id)
		v2, ok := q2.Q(e.id)
		if !ok || v1 != v2 {
			t.Errorf("restored Q(%d) = %g, want %g", e.id, v2, v1)
		}
		if q2.Visits(e.id) != q.Visits(e.id) {
			t.Errorf("restored visits differ for %v", e)
		}
	}
	if q2.Len() != 2 {
		t.Errorf("restored Len = %d, want 2", q2.Len())
	}
}

func TestEpsilonGreedyGreedyEntries(t *testing.T) {
	p := NewEpsilonGreedy[int](0.1, rand.New(rand.NewSource(1)))
	p.Improve(5, 1)
	p.Improve(2, 2)
	m := map[uint32]int{}
	p.Each(func(s uint32, a int) { m[s] = a })
	if len(m) != 2 || m[5] != 1 || m[2] != 2 {
		t.Errorf("Each = %v", m)
	}
	if _, ok := p.Greedy(3); ok {
		t.Error("a state between improved ones reads as improved")
	}
}
