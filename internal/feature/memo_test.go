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

// refBuild is one partition's space over right, built serially with the
// reference scorer.
func refBuild(right *RightSide, ds1 *store.Store, partition []rdf.TermID, opt Options) *Space {
	ref := &refScorer{theta: opt.withDefaults().Theta}
	return buildWith(ref.score, right, ds1, partition, opt)
}

// buildWith is one partition's space over right, serial, with score in the
// shipped scorer's place:
// the same token blocking over right, ids issued in the order candidates
// are met, and the indexes sorted by reading the links.
func buildWith(score func(e1, e2 entity) Set, right *RightSide, ds1 *store.Store, partition []rdf.TermID, opt Options) *Space {
	sp := newSpace(right, opt.withDefaults(), len(partition))
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
						sp.add(sp.Intern(linkset.Link{Left: subj, Right: r}), fs)
					}
				}
			}
		}
	}
	for _, entries := range sp.index {
		slices.SortFunc(entries, sp.compareEntries)
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

// TestScoreMemoMatchesDirect: every space BuildSpaces makes over the
// link_batch data sets (bench/w_link.go: DBpediaNYTimes at scale 0.2, eight
// partitions, all built at once) equals the reference build of its
// partition, serial and parallel; so do spaces scored through a one- and a
// two-entry memo, where nearly every cell evicts another; and two builds
// back to back over different data sets on one goroutine — ids from two
// dictionaries that name different terms, a pooled memo between them —
// each equal theirs.
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
			spaces := BuildSpaces(right, p.DS1, parts, opt)
			for i, part := range parts {
				ctx := fmt.Sprintf("seed %d workers %d partition %d", seed, workers, i)
				want := refBuild(right, p.DS1, part, opt)
				requireSameSpace(t, ctx, spaces[i], want)
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
			parts := Partition(p.DS1.Subjects(), 8)
			for i, sp := range BuildSpaces(right, p.DS1, parts, opt) {
				requireSameSpace(t, fmt.Sprintf("back-to-back round %d seed %d partition %d", round, p.Spec.Seed, i),
					sp, refBuild(right, p.DS1, parts[i], opt))
			}
		}
	}
}

// FuzzBuildSpaces: over fuzzed entities, split into 1 to 9 partitions and
// built on 1 to 4 workers, every space BuildSpaces makes equals the
// reference build of its partition. Each side has up to 16 entities; the
// left ones repeat under fresh subjects, up to 64 of them, so that
// partitions share cells and a build can pass the size below which it
// scores serially.
func FuzzBuildSpaces(f *testing.F) {
	f.Add("LeBron James|1984-12-30|Heat;Dwyane Wade|Heat|<Thing;Chris Bosh|1984|Raptors",
		"James, LeBron|1984|Heat|<Thing;Wade Dwyane|Miami Heat;Bosh|#1984-03-24", uint8(15), uint8(2), uint8(2))
	f.Add("a|a|b|<x;b|c;c c|a", "a|<x|<x;c|b", uint8(0), uint8(8), uint8(4))
	f.Add("", "x", uint8(0), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, left, right string, copies, nparts, workers uint8) {
		dict := rdf.NewDict()
		ds1, ds2 := store.New("a", dict), store.New("b", dict)
		lefts, rights := strings.Split(left, ";"), strings.Split(right, ";")
		lefts = lefts[:min(len(lefts), 16)]
		for n := 0; n < min(len(lefts)*(1+int(copies)%48), 64); n++ {
			fuzzEntity(ds1, strconv.Itoa(n), lefts[n%len(lefts)])
		}
		for i, spec := range rights[:min(len(rights), 16)] {
			fuzzEntity(ds2, strconv.Itoa(i), spec)
		}
		opt := DefaultOptions()
		opt.Workers = 1 + int(workers)%4
		side := NewRightSide(ds2, opt)
		parts := Partition(ds1.Subjects(), 1+int(nparts)%9)
		for i, sp := range BuildSpaces(side, ds1, parts, opt) {
			requireSameSpace(t, fmt.Sprintf("partition %d of %d, %d workers", i, len(parts), opt.Workers),
				sp, refBuild(side, ds1, parts[i], opt))
		}
	})
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
// at scale 0.2, data seeds 1000 to 1031, eight partitions), it replays the
// matrix cells of BuildSpaces at one worker — every partition's subjects in
// turn, each one's candidates by right subject, one memo of the shipped
// size and hash for the whole build — and counts the cells, the kernel
// calls the scorer made before the memo (a cell repeating the one above it
// in its column was reused), the distinct cells of each partition and of
// each build — what an unbounded memo would call the kernel for — and the
// memo's misses, the kernel calls it makes now; beside them, the misses of
// one memo per partition, cleared between partitions. Of the misses, it
// counts those the type dispatch hands to the string metric, those the
// string metric answers without a kernel, the two texts sharing no rune,
// and those it answers without token Jaccard, whose min/max token bound
// cannot beat Jaro-Winkler (stringCell and newCellText restate the rules
// from package sim). PERF.md quotes the figures.
func TestLinkBatchMemoShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("generates 32 data set pairs")
	}
	var cells, before, distinctPart, distinct, missesPart, misses, toString, noRune, noJaccard int
	var sc sim.Scratch
	for seed := int64(1000); seed < 1032; seed++ {
		p := datagen.GeneratePair(datagen.DBpediaNYTimes(0.2, seed))
		opt := DefaultOptions()
		right := NewRightSide(p.DS2, opt)
		texts := map[string]cellText{}
		text := func(s string) cellText {
			c, ok := texts[s]
			if !ok {
				c = newCellText(s)
				texts[s] = c
			}
			return c
		}
		memo := newScorer(opt.Theta, memoCells)
		seen := map[uint64]bool{}
		for _, part := range Partition(p.DS1.Subjects(), 8) {
			partMemo := newScorer(opt.Theta, memoCells)
			partSeen := map[uint64]bool{}
			ps := profiles{}
			for _, subj := range part {
				e1 := ps.entity(p.DS1, subj)
				for _, r := range blockedCandidates(right, e1) {
					for _, o2 := range right.ents[r].objs {
						for i, o1 := range e1.objs {
							cells++
							if i == 0 || o1 != e1.objs[i-1] {
								before++
							}
							k := memoKey(o1, o2)
							seen[k], partSeen[k] = true, true
							if c := partMemo.slot(k); c.key != k {
								missesPart++
								c.key = k
							}
							c := memo.slot(k)
							if c.key == k {
								continue
							}
							misses++
							c.key = k
							a, b, ok := stringCell(p.Dict, o1, o2)
							if !ok {
								continue
							}
							if toString++; a == b {
								continue
							}
							ta, tb := text(a), text(b)
							if ta.sig[0]&tb.sig[0]|ta.sig[1]&tb.sig[1] == 0 && (ta.tokens > 0 || tb.tokens > 0) {
								noRune++
								if s := o1.Sim(o2.Profile, &sc); s != 0 {
									t.Fatalf("cell (%q, %q) shares no rune but scores %g", a, b, s)
								}
								continue
							}
							lo, hi := min(ta.tokens, tb.tokens), max(ta.tokens, tb.tokens)
							if hi > 0 && float64(lo)/float64(hi) <= sim.JaroWinkler(a, b) {
								noJaccard++
							}
						}
					}
				}
			}
			distinctPart += len(partSeen)
		}
		distinct += len(seen)
	}
	hit := 1 - float64(misses)/float64(before)
	t.Logf("link_batch builds: %d cells, %d kernel calls before the memo, %d distinct per partition, %d per build",
		cells, before, distinctPart, distinct)
	t.Logf("memo misses: %d with one memo per partition, %d with one per build: %.1f %% of kernel calls saved (an unbounded memo: %.1f %%)",
		missesPart, misses, 100*hit, 100*(1-float64(distinct)/float64(before)))
	answered := float64(noRune) / float64(toString)
	t.Logf("of the memo's misses, %d reach the string metric; %d of those share no rune (%.1f %% scored without a kernel), %d more skip token Jaccard (%.1f %%)",
		toString, noRune, 100*answered, noJaccard, 100*float64(noJaccard)/float64(toString))
	if hit < 0.5 {
		t.Errorf("the memo saves %.1f %% of kernel calls, want >= 50 %%", 100*hit)
	}
	if answered < 0.4 {
		t.Errorf("the string metric answers %.1f %% of its calls without a kernel, want >= 40 %%", 100*answered)
	}
}

// blockedCandidates restates scoreSubject's candidates of e1: the right
// subjects sharing a blocking key with it through a list no longer than
// the cap, sorted and distinct.
func blockedCandidates(right *RightSide, e1 entity) []rdf.TermID {
	var out []rdf.TermID
	for _, obj := range e1.objs {
		for _, tok := range obj.keys {
			if postings := right.byToken[tok]; len(postings) <= right.maxSize {
				out = append(out, postings...)
			}
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// stringCell restates sim.Profile.Sim's dispatch for one cell: ok is true
// when the cell's score is the string metric's, which then compares a and
// b — the local names, underscores as spaces, of two distinct IRIs, or else
// the lower-cased lexical forms.
func stringCell(dict *rdf.Dict, o1, o2 *termProfile) (a, b string, ok bool) {
	v1, v2 := dict.Term(o1.id).Value, dict.Term(o2.id).Value
	t1, t2 := o1.Type, o2.Type
	i1, okI1 := o1.Int()
	i2, okI2 := o2.Int()
	_, okF1 := o1.Float()
	_, okF2 := o2.Float()
	_, okD1 := o1.Year()
	_, okD2 := o2.Year()
	numeric := func(t sim.ValueType) bool { return t == sim.TypeInt || t == sim.TypeFloat }
	year := func(v int64) bool { return v >= 1000 && v <= 2200 }
	switch {
	case t1 == sim.TypeIRI && t2 == sim.TypeIRI:
		if v1 == v2 {
			return "", "", false
		}
		return localText(v1), localText(v2), true
	case numeric(t1) && numeric(t2):
		if okI1 && okI2 && year(i1) && year(i2) || okF1 && okF2 {
			return "", "", false
		}
	case t1 == sim.TypeDate && t2 == sim.TypeDate:
		if okD1 && okD2 {
			return "", "", false
		}
	case t1 == sim.TypeDate && t2 == sim.TypeInt, t1 == sim.TypeInt && t2 == sim.TypeDate:
		return "", "", false
	}
	return strings.ToLower(v1), strings.ToLower(v2), true
}

// localText is the text an IRI is compared by: its fragment or last path
// segment, underscores as spaces.
func localText(iri string) string {
	if i := strings.LastIndexByte(iri, '#'); i >= 0 && i+1 < len(iri) {
		iri = iri[i+1:]
	} else if i := strings.LastIndexByte(iri, '/'); i >= 0 && i+1 < len(iri) {
		iri = iri[i+1:]
	}
	return strings.ReplaceAll(iri, "_", " ")
}

// cellText is what the string metric's shortcuts read of a text: bit r&127
// of sig for every rune of the text and of its tokens, and how many
// distinct tokens it has.
type cellText struct {
	sig    [2]uint64
	tokens int
}

func newCellText(s string) cellText {
	toks := sim.Tokenize(s)
	var c cellText
	for _, w := range append(toks, s) {
		for _, r := range w {
			c.sig[r>>6&1] |= 1 << (r & 63)
		}
	}
	slices.Sort(toks)
	c.tokens = len(slices.Compact(toks))
	return c
}
