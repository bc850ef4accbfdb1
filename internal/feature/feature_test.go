package feature

import (
	"slices"
	"testing"
	"testing/quick"

	"alex/internal/datagen"
	"alex/internal/linkset"
	"alex/internal/rdf"
	"alex/internal/sim"
	"alex/internal/store"
)

// pairStores builds two tiny aligned stores.
func pairStores() (*store.Store, *store.Store, *rdf.Dict) {
	dict := rdf.NewDict()
	ds1 := store.New("a", dict)
	ds2 := store.New("b", dict)
	add := func(st *store.Store, subj, pred string, obj rdf.Term) {
		st.Add(rdf.Triple{
			S: rdf.NewIRI("http://" + st.Name() + "/" + subj),
			P: rdf.NewIRI("http://" + st.Name() + "/p/" + pred),
			O: obj,
		})
	}
	add(ds1, "e1", "label", rdf.NewString("LeBron James"))
	add(ds1, "e1", "birth", rdf.NewString("1984-12-30"))
	add(ds1, "e1", "team", rdf.NewString("Heat"))
	add(ds2, "f1", "name", rdf.NewString("James, LeBron"))
	add(ds2, "f1", "born", rdf.NewInt(1984))
	add(ds2, "f2", "name", rdf.NewString("Kevin Durant"))
	add(ds2, "f2", "born", rdf.NewInt(1988))
	return ds1, ds2, dict
}

func id(t *testing.T, d *rdf.Dict, iri string) rdf.TermID {
	t.Helper()
	v, ok := d.Lookup(rdf.NewIRI(iri))
	if !ok {
		t.Fatalf("IRI %s not interned", iri)
	}
	return v
}

func TestComputeFeatureSet(t *testing.T) {
	ds1, ds2, dict := pairStores()
	e1, _ := ds1.Entity(id(t, dict, "http://a/e1"))
	e2, _ := ds2.Entity(id(t, dict, "http://b/f1"))
	fs := Compute(dict, e1, e2, 0.3)
	if fs.Len() == 0 {
		t.Fatal("empty feature set for matching pair")
	}
	nameF := Feature{P1: id(t, dict, "http://a/p/label"), P2: id(t, dict, "http://b/p/name")}
	s, ok := fs.Score(nameF)
	if !ok {
		t.Fatalf("no (label,name) feature; got %+v", fs)
	}
	if s != 1 { // token Jaccard of inverted name is 1
		t.Errorf("name feature score = %g, want 1", s)
	}
	// birth "1984-12-30" (date) vs 1984 (int) matches by year.
	birthF := Feature{P1: id(t, dict, "http://a/p/birth"), P2: id(t, dict, "http://b/p/born")}
	if s, ok := fs.Score(birthF); !ok || s != 1 {
		t.Errorf("birth feature = %g, %v; want 1, true", s, ok)
	}
}

func TestComputeThetaFilters(t *testing.T) {
	ds1, ds2, dict := pairStores()
	e1, _ := ds1.Entity(id(t, dict, "http://a/e1"))
	e2, _ := ds2.Entity(id(t, dict, "http://b/f2")) // unrelated entity
	fs := Compute(dict, e1, e2, 0.9)
	if fs.Len() != 0 {
		t.Errorf("high theta kept %d features: %+v", fs.Len(), fs)
	}
}

func TestComputeEmptyEntity(t *testing.T) {
	dict := rdf.NewDict()
	fs := Compute(dict, store.Entity{}, store.Entity{}, 0.3)
	if fs.Len() != 0 {
		t.Error("empty entities produced features")
	}
}

func TestSetScoreAbsent(t *testing.T) {
	var s Set
	if _, ok := s.Score(Feature{1, 2}); ok {
		t.Error("Score on empty set = ok")
	}
}

func TestBuildSpaceAndExplore(t *testing.T) {
	ds1, ds2, dict := pairStores()
	sp := Build(ds1, ds1.Subjects(), ds2, DefaultOptions())
	if sp.TotalPairs() != 1*2 {
		t.Errorf("TotalPairs = %d, want 2", sp.TotalPairs())
	}
	l := linkset.Link{Left: id(t, dict, "http://a/e1"), Right: id(t, dict, "http://b/f1")}
	fs, ok := sp.FeatureSet(l)
	if !ok {
		t.Fatalf("candidate pair missing from space; links = %v", sp.Links())
	}
	nameF := Feature{P1: id(t, dict, "http://a/p/label"), P2: id(t, dict, "http://b/p/name")}
	v, _ := fs.Score(nameF)

	got := sp.Explore(nameF, v-0.05, v+0.05)
	found := false
	for _, g := range got {
		if g == l {
			found = true
		}
	}
	if !found {
		t.Errorf("Explore around own score missed the link: %v", got)
	}
	// A window far from the score finds nothing.
	if got := sp.Explore(nameF, 0.31, 0.35); len(got) != 0 {
		t.Errorf("Explore in empty window = %v", got)
	}
	// Unknown feature explores nothing.
	if got := sp.Explore(Feature{9999, 9999}, 0, 1); got != nil {
		t.Errorf("Explore unknown feature = %v", got)
	}
}

// TestAppendExploreAppends checks that exploring into a buffer that
// already holds links appends exactly what exploring into an empty one
// returns, on both of ExploreN's paths: the whole window and the n links
// nearest v.
func TestAppendExploreAppends(t *testing.T) {
	p := datagen.GeneratePair(datagen.NBADBpediaNYTimes(0.25, 5))
	sp := Build(p.DS1, p.DS1.Subjects(), p.DS2, DefaultOptions())
	prefix := sp.Links()[:3]
	bounded := 0
	for _, f := range sp.Features() {
		for _, v := range []float64{0.35, 0.6, 0.95} {
			for _, n := range []int{0, 1, 4, 400} {
				fresh := sp.ExploreN(f, v, 0.2, n)
				got := sp.AppendExplore(slices.Clone(prefix), f, v, 0.2, n)
				if want := append(slices.Clone(prefix), fresh...); !slices.Equal(got, want) {
					t.Fatalf("feature %v v=%g n=%d: appended %v, want %v", f, v, n, got[len(prefix):], fresh)
				}
				if n > 0 && len(fresh) == n {
					bounded++
				}
			}
		}
	}
	if bounded == 0 {
		t.Error("no exploration hit its bound")
	}
}

func TestExploreRangeSemantics(t *testing.T) {
	// Build a space over a generated scenario and check that Explore
	// returns exactly the pairs whose score lies in range.
	scale := 0.5
	if testing.Short() {
		scale = 0.25
	}
	p := datagen.GeneratePair(datagen.NBADBpediaNYTimes(scale, 5))
	sp := Build(p.DS1, p.DS1.Subjects(), p.DS2, DefaultOptions())
	feats := sp.Features()
	if len(feats) == 0 {
		t.Fatal("no features in space")
	}
	checked := 0
	for _, f := range feats[:min(5, len(feats))] {
		lo, hi := 0.6, 0.9
		got := map[linkset.Link]bool{}
		for _, l := range sp.Explore(f, lo, hi) {
			got[l] = true
		}
		for _, l := range sp.Links() {
			fs, _ := sp.FeatureSet(l)
			s, ok := fs.Score(f)
			want := ok && s >= lo && s <= hi
			if want != got[l] {
				t.Errorf("feature %v link %v: in-range=%v returned=%v (score=%g)", f, l, want, got[l], s)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Error("nothing checked")
	}
}

func TestSpaceFiltersAgainstCrossProduct(t *testing.T) {
	scale := 0.3
	if testing.Short() {
		scale = 0.2
	}
	p := datagen.GeneratePair(datagen.DBpediaNYTimes(scale, 9))
	parts := Partition(p.DS1.Subjects(), 4)
	sp := Build(p.DS1, parts[0], p.DS2, DefaultOptions())
	if sp.Len() == 0 {
		t.Fatal("empty filtered space")
	}
	ratio := float64(sp.Len()) / float64(sp.TotalPairs())
	t.Logf("filtered %d of %d pairs (%.1f%%)", sp.Len(), sp.TotalPairs(), ratio*100)
	if ratio > 0.25 {
		t.Errorf("filter ratio = %.2f, want well below cross product (paper: ~5%%)", ratio)
	}
	// The filtered space must still contain most ground-truth pairs whose
	// left entity lies in this partition.
	inPartition := map[rdf.TermID]bool{}
	for _, s := range parts[0] {
		inPartition[s] = true
	}
	total, kept := 0, 0
	for _, l := range p.Truth.Links() {
		if !inPartition[l.Left] {
			continue
		}
		total++
		if _, ok := sp.FeatureSet(l); ok {
			kept++
		}
	}
	if total == 0 {
		t.Fatal("no truth links in partition")
	}
	if frac := float64(kept) / float64(total); frac < 0.8 {
		t.Errorf("space kept %d/%d truth pairs (%.0f%%), want >= 80%%", kept, total, frac*100)
	}
}

func TestPartitionRoundRobin(t *testing.T) {
	subjects := []rdf.TermID{1, 2, 3, 4, 5, 6, 7}
	parts := Partition(subjects, 3)
	if len(parts) != 3 {
		t.Fatalf("parts = %d", len(parts))
	}
	if len(parts[0]) != 3 || len(parts[1]) != 2 || len(parts[2]) != 2 {
		t.Errorf("sizes = %d,%d,%d", len(parts[0]), len(parts[1]), len(parts[2]))
	}
	if parts[0][0] != 1 || parts[1][0] != 2 || parts[2][0] != 3 || parts[0][1] != 4 {
		t.Errorf("round-robin order broken: %v", parts)
	}
	// n < 1 coerces to a single partition.
	one := Partition(subjects, 0)
	if len(one) != 1 || len(one[0]) != 7 {
		t.Errorf("Partition(_, 0) = %v", one)
	}
}

func TestPartitionCoversAllSubjects(t *testing.T) {
	prop := func(count uint8, n uint8) bool {
		subjects := make([]rdf.TermID, int(count))
		for i := range subjects {
			subjects[i] = rdf.TermID(i + 1)
		}
		parts := Partition(subjects, int(n%8)+1)
		seen := map[rdf.TermID]int{}
		for _, p := range parts {
			for _, s := range p {
				seen[s]++
			}
		}
		if len(seen) != len(subjects) {
			return false
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		// Equal-size: sizes differ by at most 1.
		minSize, maxSize := 1<<30, 0
		for _, p := range parts {
			if len(p) < minSize {
				minSize = len(p)
			}
			if len(p) > maxSize {
				maxSize = len(p)
			}
		}
		return len(subjects) == 0 || maxSize-minSize <= 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestBlockingKeys(t *testing.T) {
	cases := []struct {
		term rdf.Term
		want []string
	}{
		{rdf.NewString("LeBron James"), []string{"james", "lebron"}}, // sorted
		{rdf.NewString("to be or not to be"), []string{"be", "not", "or", "to"}},
		{rdf.NewInt(1984), []string{"#1984"}},
		{rdf.NewFloat(2.75), []string{"#2"}},
		{rdf.NewFloat(-2.75), []string{"#-2"}},
		{rdf.NewTyped("1984-12-30", rdf.XSDDate), []string{"#1984"}},
		{rdf.NewIRI("http://x/y"), nil},
		{rdf.NewIRI("http://x/LeBron_James"), nil}, // local names do not block
		{rdf.NewString("a b"), nil},                // single-char tokens dropped
		// A float with no int64 integer part, and non-finite spellings,
		// block by their words: int64(1e300) and int64(NaN) are
		// platform-defined.
		{rdf.NewFloat(1e300), []string{"1e", "300"}}, // lexical form 1e+300
		{rdf.NewString("1e300"), []string{"1e300"}},
		{rdf.NewString("NaN"), []string{"nan"}},
		{rdf.NewString("-Infinity"), []string{"infinity"}},
		{rdf.NewTyped("INF", rdf.XSDDouble), []string{"inf"}},
		{rdf.NewFloat(9.3e18), []string{"18", "3e"}}, // 9.3e+18 ≥ 2^63
	}
	for _, c := range cases {
		got := blockingKeys(sim.NewProfile(c.term))
		if len(got) != len(c.want) {
			t.Errorf("blockingKeys(%v) = %v, want %v", c.term, got, c.want)
			continue
		}
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Errorf("blockingKeys(%v)[%d] = %q, want %q", c.term, i, got[i], c.want[i])
			}
		}
	}
}

func TestFeatureString(t *testing.T) {
	if (Feature{1, 2}).String() != "(1,2)" {
		t.Error("Feature.String")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestNonFiniteLiteralsScoreAsStrings: "NaN" used to parse as a float, so
// every matrix cell it touched was NaN and `s > bestS` dropped them all; as
// strings, equal spellings match.
func TestNonFiniteLiteralsScoreAsStrings(t *testing.T) {
	dict := rdf.NewDict()
	ds1, ds2 := store.New("a", dict), store.New("b", dict)
	p1, p2 := rdf.NewIRI("http://a/p/code"), rdf.NewIRI("http://b/p/code")
	s1, s2 := rdf.NewIRI("http://a/e"), rdf.NewIRI("http://b/f")
	ds1.Add(rdf.Triple{S: s1, P: p1, O: rdf.NewString("NaN")})
	ds2.Add(rdf.Triple{S: s2, P: p2, O: rdf.NewString("nan")})
	ds2.Add(rdf.Triple{S: s2, P: rdf.NewIRI("http://b/p/count"), O: rdf.NewInt(12)})
	e1, _ := ds1.Entity(id(t, dict, "http://a/e"))
	e2, _ := ds2.Entity(id(t, dict, "http://b/f"))
	fs := Compute(dict, e1, e2, 0.3)
	f := Feature{P1: id(t, dict, "http://a/p/code"), P2: id(t, dict, "http://b/p/code")}
	if s, ok := fs.Score(f); !ok || s != 1 {
		t.Errorf("(code,code) = %g, %v; want 1, true (NaN matches nan); set %+v", s, ok, fs)
	}
	// The pair blocks on the shared word, so Build finds it too.
	sp := Build(ds1, ds1.Subjects(), ds2, DefaultOptions())
	if sp.Len() != 1 {
		t.Errorf("space has %d pairs, want the one blocked on \"nan\"", sp.Len())
	}
}

// TestScoreAllocatesOnlyItsSet pins the mechanism: with the two entities'
// profiles made, scoring the pair derives nothing per value — no parsing,
// lower-casing, tokenising or rune conversion — and reuses the scorer's
// buffers (the string kernel's table and bit sets among them), so the only
// allocations are the returned Set's two slices. That holds when every
// cell is a memo hit (a full-size memo, warm) and when nearly every cell
// goes to the kernel (a one-entry memo).
func TestScoreAllocatesOnlyItsSet(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	p := datagen.GeneratePair(datagen.DBpediaNYTimes(0.2, 1000))
	ps := profiles{}
	for _, cells := range []int{memoCells, 1} {
		sc := newScorer(0.3, cells)
		checked := 0
		for _, l := range p.Truth.Links()[:20] {
			e1, e2 := ps.entity(p.DS1, l.Left), ps.entity(p.DS2, l.Right)
			want := sc.score(e1, e2) // also grows the buffers to this pair's size
			if want.Len() == 0 {
				continue
			}
			checked++
			var got Set
			if allocs := testing.AllocsPerRun(50, func() { got = sc.score(e1, e2) }); allocs > 2 {
				t.Errorf("%d-cell memo, pair %v (%d×%d attributes): %.0f allocations per score, want <= 2", cells, l, len(e1.objs), len(e2.objs), allocs)
			}
			if !sameSet(got, want) {
				t.Errorf("%d-cell memo, pair %v: rescoring changed the set: %+v vs %+v", cells, l, got, want)
			}
		}
		if checked == 0 {
			t.Fatal("no truth pair produced a feature set")
		}
	}
}
