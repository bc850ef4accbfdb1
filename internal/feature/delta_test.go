package feature

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"alex/internal/datagen"
	"alex/internal/rdf"
	"alex/internal/store"
)

// dump renders a Space through the canonical equivalence contract.
func dump(t *testing.T, sp *Space) string {
	t.Helper()
	var b strings.Builder
	if err := sp.DumpCanonical(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// requireEquivalent asserts the incrementally maintained space dumps
// byte-identically to a from-scratch Build over the same store state.
func requireEquivalent(t *testing.T, ctx string, inc *Space, ds1 *store.Store, partition []rdf.TermID, ds2 *store.Store, opt Options) {
	t.Helper()
	oracle := Build(ds1, append([]rdf.TermID(nil), partition...), ds2, opt)
	got, want := dump(t, inc), dump(t, oracle)
	if got != want {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		lo := i - 80
		if lo < 0 {
			lo = 0
		}
		t.Fatalf("%s: incremental space diverged from Build oracle at byte %d\nincremental: …%.160s…\noracle:      …%.160s…",
			ctx, i, got[lo:], want[lo:])
	}
}

func TestUpsertSubjectEquivalence(t *testing.T) {
	p := datagen.GeneratePair(datagen.NBADBpediaNYTimes(0.3, 11))
	subjects := p.DS1.Subjects()
	if len(subjects) < 4 {
		t.Fatal("corpus too small")
	}
	opt := Options{Theta: 0.3, MaxBlockSize: 64, Workers: 1}
	// Build over all but the last two subjects, then stream them in.
	sp := Build(p.DS1, subjects[:len(subjects)-2], p.DS2, opt)
	for _, subj := range subjects[len(subjects)-2:] {
		sp.UpsertSubject(p.DS1, subj)
	}
	requireEquivalent(t, "grow-by-upsert", sp, p.DS1, subjects, p.DS2, opt)
}

func TestRemoveSubjectEquivalence(t *testing.T) {
	p := datagen.GeneratePair(datagen.NBADBpediaNYTimes(0.3, 12))
	subjects := p.DS1.Subjects()
	opt := Options{Theta: 0.3, MaxBlockSize: 64, Workers: 1}
	sp := Build(p.DS1, subjects, p.DS2, opt)
	sp.RemoveSubject(subjects[0])
	sp.RemoveSubject(subjects[len(subjects)/2])
	sp.RemoveSubject(subjects[0]) // double remove is a no-op
	var kept []rdf.TermID
	for i, s := range subjects {
		if i != 0 && i != len(subjects)/2 {
			kept = append(kept, s)
		}
	}
	requireEquivalent(t, "shrink-by-remove", sp, p.DS1, kept, p.DS2, opt)
}

func TestApplyObjectDeltaEquivalence(t *testing.T) {
	p := datagen.GeneratePair(datagen.NBADBpediaNYTimes(0.3, 13))
	subjects := p.DS1.Subjects()
	opt := Options{Theta: 0.3, MaxBlockSize: 64, Workers: 1}
	sp := Build(p.DS1, subjects, p.DS2, opt)

	// Extend an existing DS2 entity with a literal that moves tokens.
	r0 := p.DS2.Subjects()[0]
	dict := p.Dict
	p.DS2.Add(rdf.Triple{
		S: dict.Term(r0),
		P: rdf.NewIRI("http://delta.test/p/alias"),
		O: rdf.NewString("golden state warriors"),
	})
	sp.ApplyObjectDelta(p.DS1, sp.Right().Apply(p.DS2, []rdf.TermID{r0}))
	requireEquivalent(t, "ds2-extend", sp, p.DS1, subjects, p.DS2, opt)

	// Brand-new DS2 entity: totalPairs must grow and blocking must see it.
	novel := rdf.NewIRI("http://delta.test/novel1")
	p.DS2.Add(rdf.Triple{S: novel, P: rdf.NewIRI("http://delta.test/p/name"), O: rdf.NewString("golden state warriors")})
	novelID, ok := dict.Lookup(novel)
	if !ok {
		t.Fatal("novel subject not interned")
	}
	sp.ApplyObjectDelta(p.DS1, sp.Right().Apply(p.DS2, []rdf.TermID{novelID}))
	requireEquivalent(t, "ds2-new-subject", sp, p.DS1, subjects, p.DS2, opt)

	// IRI-valued attribute: contributes no blocking token but reshapes
	// the similarity matrix of every pair of r0.
	p.DS2.Add(rdf.Triple{
		S: dict.Term(r0),
		P: rdf.NewIRI("http://delta.test/p/seeAlso"),
		O: rdf.NewIRI("http://delta.test/other"),
	})
	sp.ApplyObjectDelta(p.DS1, sp.Right().Apply(p.DS2, []rdf.TermID{r0}))
	requireEquivalent(t, "ds2-iri-attr", sp, p.DS1, subjects, p.DS2, opt)
}

// deltaWorld drives the randomized property test: a pair of tiny stores
// mutated through the delta entry points, with a from-scratch Build
// oracle checked after every operation.
type deltaWorld struct {
	t         *testing.T
	rng       *rand.Rand
	dict      *rdf.Dict
	ds1, ds2  *store.Store
	partition []rdf.TermID
	ds2subs   []rdf.TermID
	sp        *Space
	opt       Options
	nextID    int
	// fresh makes randValue mint never-seen literals too, so new ids
	// reach a scorer whose memo already holds the old ones.
	fresh bool
}

// tokenPool is small so blocking tokens collide across entities and the
// tiny MaxBlockSize gets crossed in both directions.
var tokenPool = []string{"james", "curry", "durant", "warriors", "lakers", "heat", "golden", "king"}

func (w *deltaWorld) randValue() rdf.Term {
	if w.fresh && w.rng.Intn(3) == 0 {
		w.nextID++
		return rdf.NewString(fmt.Sprintf("novel%d %s", w.nextID, tokenPool[w.rng.Intn(len(tokenPool))]))
	}
	switch w.rng.Intn(6) {
	case 0:
		return rdf.NewInt(int64(1980 + w.rng.Intn(6)))
	case 1: // IRI attribute: no blocking token, still a feature input
		return rdf.NewIRI(fmt.Sprintf("http://prop.test/ref/%d", w.rng.Intn(4)))
	default:
		a := tokenPool[w.rng.Intn(len(tokenPool))]
		b := tokenPool[w.rng.Intn(len(tokenPool))]
		return rdf.NewString(a + " " + b)
	}
}

func (w *deltaWorld) addTriple(st *store.Store, subj rdf.Term) {
	st.Add(rdf.Triple{
		S: subj,
		P: rdf.NewIRI(fmt.Sprintf("http://prop.test/p/%d", w.rng.Intn(4))),
		O: w.randValue(),
	})
}

func (w *deltaWorld) newSubject(st *store.Store, side string) rdf.TermID {
	iri := rdf.NewIRI(fmt.Sprintf("http://prop.test/%s/%d", side, w.nextID))
	w.nextID++
	for n := 1 + w.rng.Intn(3); n > 0; n-- {
		w.addTriple(st, iri)
	}
	id, ok := w.dict.Lookup(iri)
	if !ok {
		w.t.Fatalf("subject %v not interned", iri)
	}
	return id
}

func (w *deltaWorld) step() string {
	switch op := w.rng.Intn(6); op {
	case 0: // new DS1 subject
		subj := w.newSubject(w.ds1, "left")
		w.partition = append(w.partition, subj)
		w.sp.UpsertSubject(w.ds1, subj)
		return "add-left"
	case 1: // extend an existing DS1 subject
		if len(w.partition) == 0 {
			return ""
		}
		subj := w.partition[w.rng.Intn(len(w.partition))]
		w.addTriple(w.ds1, w.dict.Term(subj))
		w.sp.UpsertSubject(w.ds1, subj)
		return "mutate-left"
	case 2: // remove a DS1 subject from the partition
		if len(w.partition) < 2 {
			return ""
		}
		i := w.rng.Intn(len(w.partition))
		subj := w.partition[i]
		w.partition = append(w.partition[:i], w.partition[i+1:]...)
		w.sp.RemoveSubject(subj)
		return "remove-left"
	case 3: // new DS2 subject
		subj := w.newSubject(w.ds2, "right")
		w.ds2subs = append(w.ds2subs, subj)
		w.sp.ApplyObjectDelta(w.ds1, w.sp.Right().Apply(w.ds2, []rdf.TermID{subj}))
		return "add-right"
	case 4: // extend an existing DS2 subject
		if len(w.ds2subs) == 0 {
			return ""
		}
		subj := w.ds2subs[w.rng.Intn(len(w.ds2subs))]
		w.addTriple(w.ds2, w.dict.Term(subj))
		w.sp.ApplyObjectDelta(w.ds1, w.sp.Right().Apply(w.ds2, []rdf.TermID{subj}))
		return "mutate-right"
	default: // retract a whole DS2 entity
		if len(w.ds2subs) < 2 {
			return ""
		}
		i := w.rng.Intn(len(w.ds2subs))
		subj := w.ds2subs[i]
		e, ok := w.ds2.Entity(subj)
		if !ok {
			return ""
		}
		for j := range e.Preds {
			w.ds2.RetractID(rdf.TripleID{S: subj, P: e.Preds[j], O: e.Objs[j]})
		}
		w.ds2subs = append(w.ds2subs[:i], w.ds2subs[i+1:]...)
		w.sp.ApplyObjectDelta(w.ds1, w.sp.Right().Apply(w.ds2, []rdf.TermID{subj}))
		return "retract-right"
	}
}

// TestDeltaPropertyEquivalence runs randomized upsert/remove/object-delta
// sequences and checks the Build-oracle equivalence after every step.
// MaxBlockSize is tiny so stopword liveness flips in both directions. The
// -warm runs first fill the space's delta scorer memo with every cell of
// the built space, and halfway through start interning new literals.
func TestDeltaPropertyEquivalence(t *testing.T) {
	steps := 140
	if testing.Short() {
		steps = 50
	}
	for _, run := range []struct {
		seed int64
		warm bool
	}{{1, false}, {2, false}, {3, false}, {1, true}, {2, true}, {3, true}} {
		seed, name := run.seed, fmt.Sprintf("seed%d", run.seed)
		if run.warm {
			name += "-warm"
		}
		t.Run(name, func(t *testing.T) {
			dict := rdf.NewDict()
			w := &deltaWorld{
				t:    t,
				rng:  rand.New(rand.NewSource(seed)),
				dict: dict,
				ds1:  store.New("left", dict),
				ds2:  store.New("right", dict),
				opt:  Options{Theta: 0.3, MaxBlockSize: 3, Workers: 1},
			}
			for i := 0; i < 3; i++ {
				w.partition = append(w.partition, w.newSubject(w.ds1, "left"))
			}
			for i := 0; i < 3; i++ {
				w.ds2subs = append(w.ds2subs, w.newSubject(w.ds2, "right"))
			}
			w.sp = Build(w.ds1, w.partition, w.ds2, w.opt)
			if run.warm {
				for _, subj := range w.partition {
					w.sp.UpsertSubject(w.ds1, subj)
				}
				requireEquivalent(t, "warm-up", w.sp, w.ds1, w.partition, w.ds2, w.opt)
			}
			for i := 0; i < steps; i++ {
				w.fresh = run.warm && i >= steps/2
				op := w.step()
				if op == "" {
					continue
				}
				requireEquivalent(t, fmt.Sprintf("step %d (%s)", i, op), w.sp, w.ds1, w.partition, w.ds2, w.opt)
			}
		})
	}
}

func TestDeltaCountersAndTotals(t *testing.T) {
	p := datagen.GeneratePair(datagen.NBADBpediaNYTimes(0.25, 21))
	subjects := p.DS1.Subjects()
	opt := Options{Theta: 0.3, MaxBlockSize: 64, Workers: 1}
	sp := Build(p.DS1, subjects[:len(subjects)-1], p.DS2, opt)
	before := sp.TotalPairs()
	sp.UpsertSubject(p.DS1, subjects[len(subjects)-1])
	if got, want := sp.TotalPairs(), before+len(p.DS2.Subjects()); got != want {
		t.Errorf("TotalPairs after upsert = %d, want %d", got, want)
	}
	sp.RemoveSubject(subjects[0])
	if got, want := sp.TotalPairs(), before; got != want {
		t.Errorf("TotalPairs after remove = %d, want %d", got, want)
	}
}

// TestWarmUpsertAllocs pins the delta path's allocations: once the space's
// delta scorer exists and its memo holds a subject's cells, re-upserting
// the subject allocates what it did before the memo (measured at the
// parent of PR 21 on these eight subjects) — a lookup allocates nothing.
func TestWarmUpsertAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const parentAllocs = 461
	p := datagen.GeneratePair(datagen.DBpediaNYTimes(0.2, 1000))
	subjects := p.DS1.Subjects()
	sp := Build(p.DS1, subjects, p.DS2, Options{Theta: 0.3, MaxBlockSize: 64, Workers: 1})
	total := 0.0
	for _, subj := range subjects[:8] {
		sp.UpsertSubject(p.DS1, subj)
		total += testing.AllocsPerRun(20, func() { sp.UpsertSubject(p.DS1, subj) })
	}
	if total > parentAllocs {
		t.Errorf("warm UpsertSubject of eight subjects: %.0f allocations, parent %d", total, parentAllocs)
	}
}
