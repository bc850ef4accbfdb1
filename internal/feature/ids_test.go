package feature

import (
	"fmt"
	"math/rand"
	"testing"

	"alex/internal/linkset"
)

// idLedger records every link id a space has issued, as it was first seen,
// and follows each id between pair and non-pair across checks.
type idLedger struct {
	links   []linkset.Link // by id: the link it named when first seen
	pair    []bool         // by id: a pair at the last check
	outside []bool         // by id: no pair when first seen (an interned outside link)
	dropped []bool         // by id: a pair once, then dropped
	// comebacks counts dropped pairs found again under their id; joins
	// counts outside links that became pairs under theirs.
	comebacks, joins int
}

// check holds the space's ids to the ledger: no id issued earlier names
// another link or maps back to another id, every later id is new, and an
// id is a pair exactly when its link's feature set says so.
func (g *idLedger) check(t *testing.T, when string, sp *Space) {
	t.Helper()
	if sp.IDs() < len(g.links) {
		t.Fatalf("%s: the space has issued %d ids, the ledger recorded %d", when, sp.IDs(), len(g.links))
	}
	for id, want := range g.links {
		l := sp.Link(uint32(id))
		if l != want {
			t.Fatalf("%s: id %d names %v, it named %v", when, id, l, want)
		}
		if back := sp.Intern(l); back != uint32(id) {
			t.Fatalf("%s: link %v interns to %d, its id is %d", when, l, back, id)
		}
	}
	for id := len(g.links); id < sp.IDs(); id++ {
		l := sp.Link(uint32(id))
		if back := sp.Intern(l); back != uint32(id) {
			t.Fatalf("%s: new id %d names %v, which already has id %d", when, id, l, back)
		}
		_, isPair := sp.FeatureSet(l)
		g.links = append(g.links, l)
		g.pair = append(g.pair, isPair)
		g.outside = append(g.outside, !isPair)
		g.dropped = append(g.dropped, false)
	}
	pairs := 0
	for id := range g.links {
		l := sp.Link(uint32(id))
		fs, isPair := sp.FeatureSet(l)
		if isPair != (sp.SetOf(uint32(id)).Len() > 0) || isPair && fs.Len() == 0 {
			t.Fatalf("%s: id %d: FeatureSet and SetOf disagree", when, id)
		}
		if isPair {
			pairs++
		}
		switch {
		case isPair && !g.pair[id] && g.dropped[id]:
			g.comebacks++
		case isPair && !g.pair[id] && g.outside[id]:
			g.joins++
			g.outside[id] = false
		case !isPair && g.pair[id]:
			g.dropped[id] = true
		}
		g.pair[id] = isPair
	}
	if pairs != sp.Len() {
		t.Fatalf("%s: %d ids are pairs, the space holds %d", when, pairs, sp.Len())
	}
}

// checkExplore holds AppendExplore to ExploreN: the ids it returns name the
// links ExploreN returns, in order, and each has the feature in the window.
func checkExplore(t *testing.T, when string, sp *Space) {
	t.Helper()
	for _, f := range sp.Features() {
		for _, v := range []float64{0.35, 0.6, 0.95} {
			for _, n := range []int{0, 2} {
				ids := sp.AppendExplore(nil, f, v, 0.2, n)
				links := sp.ExploreN(f, v, 0.2, n)
				if len(ids) != len(links) {
					t.Fatalf("%s: feature %v v=%g n=%d: %d ids, %d links", when, f, v, n, len(ids), len(links))
				}
				for i, id := range ids {
					if sp.Link(id) != links[i] {
						t.Fatalf("%s: feature %v v=%g n=%d: id %d names %v, ExploreN has %v", when, f, v, n, id, sp.Link(id), links[i])
					}
					if s, ok := sp.SetOf(id).Score(f); !ok || s < v-0.2 || s > v+0.2 {
						t.Fatalf("%s: feature %v v=%g: explored id %d scores %g, %v", when, f, v, id, s, ok)
					}
				}
			}
		}
	}
}

// runIDScript drives a delta world through ops (each taken mod 5, see
// deltaWorld.step) and checks ids, exploration and Build equivalence after
// every step that did something.
func runIDScript(t *testing.T, seed int64, ops []byte) *idLedger {
	w := newDeltaWorld(t, seed)
	g := &idLedger{}
	g.check(t, "build", w.sp)
	for i, op := range ops {
		what := w.step(int(op % 5))
		if what == "" {
			continue
		}
		when := fmt.Sprintf("step %d (%s)", i, what)
		g.check(t, when, w.sp)
		checkExplore(t, when, w.sp)
		requireEquivalent(t, when, w.sp, w.ds1, w.partition, w.ds2, w.opt)
	}
	return g
}

// FuzzSpaceIDs runs fuzzed scripts of UpsertSubject, ApplyObjectDelta and
// Intern over a tiny world. Every id ever issued must still name its link,
// a dropped pair that is rescored and an interned outside link that becomes
// a pair must keep their ids, AppendExplore's ids must name ExploreN's
// links in order, and the space must dump as a fresh Build does.
func FuzzSpaceIDs(f *testing.F) {
	f.Add(int64(1), []byte{2, 2, 3, 4, 0, 1, 2, 5, 3, 2, 4, 1})
	f.Add(int64(2), []byte{3, 3, 2, 2, 2, 5, 5, 1, 0, 4, 2, 3})
	f.Add(int64(3), []byte{0, 0, 2, 1, 2, 4, 5, 2, 3, 3, 1, 4, 2})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		runIDScript(t, seed, ops)
	})
}

// TestSpaceIDsSurviveDeltas runs long seeded scripts through FuzzSpaceIDs's
// checks and requires that they reached both paths where an id must
// survive: a dropped pair scored again, and an outside link that became a
// pair.
func TestSpaceIDsSurviveDeltas(t *testing.T) {
	steps := 150
	if testing.Short() {
		steps = 60
	}
	comebacks, joins := 0, 0
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, steps)
		for i := range ops {
			ops[i] = byte(rng.Intn(5))
		}
		g := runIDScript(t, seed, ops)
		comebacks += g.comebacks
		joins += g.joins
	}
	if comebacks == 0 || joins == 0 {
		t.Errorf("coverage: %d dropped pairs came back, %d outside links became pairs; want both non-zero", comebacks, joins)
	}
}
