package feature

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"alex/internal/datagen"
	"alex/internal/linkset"
	"alex/internal/rdf"
	"alex/internal/sim"
	"alex/internal/store"
)

// refScorer is the reference the shipped scorer is held to: the θ-filtered
// feature set of §4.1 restated from its definition — the full similarity
// matrix, every cell from the kernel, then per-row (|e1| > |e2|) or
// per-column maxima, first cell in order among equals, duplicate features
// keeping their maximum.
type refScorer struct {
	theta float64
	sim   sim.Scratch
}

func (r *refScorer) score(e1, e2 entity) Set {
	m := make([][]float64, len(e1.objs))
	for i, o1 := range e1.objs {
		m[i] = make([]float64, len(e2.objs))
		for j, o2 := range e2.objs {
			m[i][j] = o1.Sim(o2.Profile, &r.sim)
		}
	}
	best := map[Feature]float64{}
	keep := func(f Feature, s float64) {
		if old, ok := best[f]; s >= r.theta && (!ok || s > old) {
			best[f] = s
		}
	}
	if len(e1.objs) > len(e2.objs) {
		for i := range e1.objs {
			at := 0
			for j := range e2.objs {
				if m[i][j] > m[i][at] {
					at = j
				}
			}
			if len(e2.objs) > 0 {
				keep(Feature{P1: e1.preds[i], P2: e2.preds[at]}, m[i][at])
			}
		}
	} else {
		for j := range e2.objs {
			at := 0
			for i := range e1.objs {
				if m[i][j] > m[at][j] {
					at = i
				}
			}
			if len(e1.objs) > 0 {
				keep(Feature{P1: e1.preds[at], P2: e2.preds[j]}, m[at][j])
			}
		}
	}
	if len(best) == 0 {
		return Set{}
	}
	var fs Set
	for f := range best {
		fs.Features = append(fs.Features, f)
	}
	slices.SortFunc(fs.Features, compareFeatures)
	for _, f := range fs.Features {
		fs.Scores = append(fs.Scores, best[f])
	}
	return fs
}

// refBuild is BuildOn with the reference scorer, serial.
func refBuild(right *RightSide, ds1 *store.Store, partition []rdf.TermID, opt Options) *Space {
	ref := &refScorer{theta: opt.withDefaults().Theta}
	return buildWith(ref.score, right, ds1, partition, opt)
}

// buildWith is BuildOn, serial, with score in the shipped scorer's place:
// the same token blocking over right, candidates met in scoreSubject's
// order.
func buildWith(score func(e1, e2 entity) Set, right *RightSide, ds1 *store.Store, partition []rdf.TermID, opt Options) *Space {
	sp := &Space{
		opt:       opt.withDefaults(),
		pairs:     map[linkset.Link]Set{},
		index:     map[Feature][]scoredLink{},
		right:     right,
		prof:      profiles{},
		members:   map[rdf.TermID]struct{}{},
		leftPairs: map[rdf.TermID][]linkset.Link{},
	}
	for _, subj := range partition {
		sp.members[subj] = struct{}{}
		e1 := sp.prof.entity(ds1, subj)
		seen := map[rdf.TermID]bool{}
		for _, obj := range e1.objs {
			for _, tok := range obj.keys {
				if len(right.byToken[tok]) > right.maxSize {
					continue
				}
				for _, r := range right.byToken[tok] {
					if seen[r] {
						continue
					}
					seen[r] = true
					if fs := score(e1, right.ents[r].entity); fs.Len() > 0 {
						sp.insert(scoredPair{link: linkset.Link{Left: subj, Right: r}, fs: fs})
					}
				}
			}
		}
	}
	for _, entries := range sp.index {
		slices.SortFunc(entries, compareEntries)
	}
	return sp
}

// requireSameSpace holds got to want bit for bit: the same pairs, the same
// float64 bits for every score and the same order in every feature index.
// DumpCanonical writes scores as hexadecimal floats, so equal dumps are
// exactly that.
func requireSameSpace(t *testing.T, ctx string, got, want *Space) {
	t.Helper()
	if g, w := dump(t, got), dump(t, want); g != w {
		i := 0
		for i < len(g) && i < len(w) && g[i] == w[i] {
			i++
		}
		lo := max(0, i-80)
		t.Fatalf("%s: space differs from the reference build at byte %d\ngot:       …%.160s…\nreference: …%.160s…", ctx, i, g[lo:], w[lo:])
	}
}

// TestScoreMemoMatchesDirect: every space BuildOn makes over the link_batch
// data sets (bench/w_link.go: DBpediaNYTimes at scale 0.2, eight
// partitions) equals the reference build, serial and parallel; so do
// spaces scored through a one- and a two-entry memo, where nearly every
// cell evicts another; and two builds back to back over different data
// sets on one goroutine — ids from two dictionaries that name different
// terms, a pooled memo between them — each equal theirs.
func TestScoreMemoMatchesDirect(t *testing.T) {
	seeds := []int64{1000, 1001, 1002, 1003, 1004, 1005, 1006, 1007}
	if testing.Short() {
		seeds = seeds[:2]
	}
	pairs := map[int64]*datagen.Pair{}
	for _, seed := range seeds {
		pairs[seed] = datagen.GeneratePair(datagen.DBpediaNYTimes(0.2, seed))
	}
	for _, seed := range seeds {
		p := pairs[seed]
		parts := Partition(p.DS1.Subjects(), 8)
		for _, workers := range []int{1, 2} {
			opt := DefaultOptions()
			opt.Workers = workers
			right := NewRightSide(p.DS2, opt)
			for i, part := range parts {
				ctx := fmt.Sprintf("seed %d workers %d partition %d", seed, workers, i)
				want := refBuild(right, p.DS1, part, opt)
				requireSameSpace(t, ctx, BuildOn(right, p.DS1, part, opt), want)
				if workers == 1 {
					for _, cells := range []int{1, 2} {
						got := buildWith(newScorer(opt.Theta, cells).score, right, p.DS1, part, opt)
						requireSameSpace(t, fmt.Sprintf("%s, %d-cell memo", ctx, cells), got, want)
					}
				}
			}
		}
	}
	a, b := pairs[seeds[0]], pairs[seeds[1]]
	opt := DefaultOptions()
	opt.Workers = 1
	for round := 0; round < 2; round++ {
		for _, p := range []*datagen.Pair{a, b} {
			right := NewRightSide(p.DS2, opt)
			subjects := p.DS1.Subjects()
			requireSameSpace(t, fmt.Sprintf("back-to-back round %d seed %d", round, p.Spec.Seed),
				BuildOn(right, p.DS1, subjects, opt), refBuild(right, p.DS1, subjects, opt))
		}
	}
}

// fuzzEntity makes an entity of st from a fuzzed spec: up to 16 values
// separated by '|', each an IRI ("<…"), a date ("#…"), an integer, or else a
// plain string, under one of three predicates so duplicate features occur.
func fuzzEntity(st *store.Store, subj string, spec string) rdf.TermID {
	s := rdf.NewIRI("http://fuzz/" + st.Name() + "/" + subj)
	values := strings.Split(spec, "|")
	for i, v := range values[:min(len(values), 16)] {
		var o rdf.Term
		switch {
		case strings.HasPrefix(v, "<"):
			o = rdf.NewIRI("http://fuzz/" + v[1:])
		case strings.HasPrefix(v, "#"):
			o = rdf.NewTyped(v[1:], rdf.XSDDate)
		default:
			if n, err := strconv.ParseInt(v, 10, 64); err == nil {
				o = rdf.NewInt(n)
			} else {
				o = rdf.NewString(v)
			}
		}
		st.Add(rdf.Triple{S: s, P: rdf.NewIRI(fmt.Sprintf("http://fuzz/p/%d", i%3)), O: o})
	}
	id, _ := st.Dict().Lookup(s)
	return id
}

// FuzzScoreMemo: on any two entities the scorer's set equals the reference
// bit for bit — through fresh scorers (a build's, from the pool, and ones
// with a one- and a two-entry memo, where every cell contends), and through
// scorers of those sizes that have scored every earlier input of the run
// over the same dictionary.
func FuzzScoreMemo(f *testing.F) {
	f.Add("LeBron James|1984-12-30|Heat", "James, LeBron|1984|Heat|<Thing")
	f.Add("a|a|b|<x", "a|<x|<x")
	f.Add("#1984-12-30|1984|1.5e3", "#1984-01-01|1985|1500")
	f.Add("", "x")
	dict := rdf.NewDict()
	ds1, ds2 := store.New("a", dict), store.New("b", dict)
	warm := []*scorer{newScorer(0.3, memoCells), newScorer(0.3, 1), newScorer(0.3, 2)}
	n := 0
	f.Fuzz(func(t *testing.T, a, b string) {
		n++
		ps := profiles{}
		e1 := ps.entity(ds1, fuzzEntity(ds1, strconv.Itoa(n), a))
		e2 := ps.entity(ds2, fuzzEntity(ds2, strconv.Itoa(n), b))
		ref := refScorer{theta: 0.3}
		want := ref.score(e1, e2)
		build := buildScorer(0.3)
		defer scorers.Put(build)
		for _, sc := range append([]*scorer{build, newScorer(0.3, 1), newScorer(0.3, 2)}, warm...) {
			// Twice: the second pass reads what the first wrote.
			for pass := 0; pass < 2; pass++ {
				if got := sc.score(e1, e2); !sameSet(got, want) {
					t.Fatalf("%d-cell scorer, pass %d: %+v, reference %+v", len(sc.memo), pass, got, want)
				}
			}
		}
	})
}

// sameSet compares two feature sets feature for feature and score bit for
// score bit.
func sameSet(a, b Set) bool {
	if !slices.Equal(a.Features, b.Features) || len(a.Scores) != len(b.Scores) {
		return false
	}
	for i := range a.Scores {
		if math.Float64bits(a.Scores[i]) != math.Float64bits(b.Scores[i]) {
			return false
		}
	}
	return true
}

// TestLinkBatchMemoShapes pins what the memo's gain rests on. Over every
// data set the link_batch workload links (bench/w_link.go: DBpediaNYTimes
// at scale 0.2, data seeds 1000 to 1031, eight partitions, one build
// scorer per partition), it counts the matrix cells a build scores, the
// kernel calls the scorer made before the memo (a cell repeating the one
// above it in its column was reused), the distinct cells of each build —
// what an unbounded memo would call the kernel for — and the memo's misses,
// the kernel calls it makes now, replaying each build's cells through a
// memo of the shipped size and hash. PERF.md "PR 21" quotes the figures.
func TestLinkBatchMemoShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("generates 32 data set pairs")
	}
	var cells, before, distinct, misses int
	for seed := int64(1000); seed < 1032; seed++ {
		p := datagen.GeneratePair(datagen.DBpediaNYTimes(0.2, seed))
		opt := DefaultOptions()
		right := NewRightSide(p.DS2, opt)
		for _, part := range Partition(p.DS1.Subjects(), 8) {
			memo := newScorer(opt.Theta, memoCells)
			seen := map[uint64]bool{}
			count := func(e1, e2 entity) Set {
				for _, o2 := range e2.objs {
					for i, o1 := range e1.objs {
						cells++
						if i == 0 || o1 != e1.objs[i-1] {
							before++
						}
						k := memoKey(o1, o2)
						if c := memo.slot(k); c.key != k {
							misses++
							c.key = k
						}
						seen[k] = true
					}
				}
				return Set{}
			}
			buildWith(count, right, p.DS1, part, opt)
			distinct += len(seen)
		}
	}
	hit := 1 - float64(misses)/float64(before)
	t.Logf("link_batch builds: %d cells, %d kernel calls before the memo, %d distinct, %d with it: %.1f %% of kernel calls saved (an unbounded memo: %.1f %%)",
		cells, before, distinct, misses, 100*hit, 100*(1-float64(distinct)/float64(before)))
	if hit < 0.5 {
		t.Errorf("the memo saves %.1f %% of kernel calls, want >= 50 %%", 100*hit)
	}
}
