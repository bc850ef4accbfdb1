package paris

import (
	"testing"

	"alex/internal/datagen"
	"alex/internal/linkset"
	"alex/internal/rdf"
	"alex/internal/store"
)

// twoEntityStores builds minimal stores where a1 matches b1 on two strong
// values, and a2 shares only one value with b1.
func twoEntityStores() (*store.Store, *store.Store, *rdf.Dict) {
	dict := rdf.NewDict()
	ds1 := store.New("left", dict)
	ds2 := store.New("right", dict)
	add := func(st *store.Store, subj, pred, val string) {
		st.Add(rdf.Triple{
			S: rdf.NewIRI("http://" + st.Name() + "/" + subj),
			P: rdf.NewIRI("http://" + st.Name() + "/p/" + pred),
			O: rdf.NewString(val),
		})
	}
	add(ds1, "a1", "name", "LeBron James")
	add(ds1, "a1", "birth", "1984-12-30")
	add(ds1, "a2", "name", "Other Person")
	add(ds1, "a2", "birth", "1984-12-30")   // shares only birth with b1
	add(ds2, "b1", "label", "lebron james") // case-insensitive match
	add(ds2, "b1", "born", "1984-12-30")
	add(ds2, "b2", "label", "Unrelated Entity")
	add(ds2, "b2", "born", "1901-01-01")
	return ds1, ds2, dict
}

func findLink(dict *rdf.Dict, scored []linkset.Scored, left, right string) (linkset.Scored, bool) {
	lID, ok1 := dict.Lookup(rdf.NewIRI(left))
	rID, ok2 := dict.Lookup(rdf.NewIRI(right))
	if !ok1 || !ok2 {
		return linkset.Scored{}, false
	}
	for _, s := range scored {
		if s.Link.Left == lID && s.Link.Right == rID {
			return s, true
		}
	}
	return linkset.Scored{}, false
}

func TestLinkTwoEvidenceAboveThreshold(t *testing.T) {
	ds1, ds2, dict := twoEntityStores()
	scored := Link(ds1, ds2, DefaultConfig())
	s, ok := findLink(dict, scored, "http://left/a1", "http://right/b1")
	if !ok {
		t.Fatalf("a1~b1 not linked; got %v", scored)
	}
	if s.Score < 0.95 {
		t.Errorf("a1~b1 score = %g, want >= 0.95", s.Score)
	}
	// a2 shares only one value with b1: single evidence is capped below
	// the threshold.
	if _, ok := findLink(dict, scored, "http://left/a2", "http://right/b1"); ok {
		t.Error("a2~b1 linked on single evidence")
	}
}

func TestLinkNoSharedValues(t *testing.T) {
	dict := rdf.NewDict()
	ds1 := store.New("l", dict)
	ds2 := store.New("r", dict)
	ds1.Add(rdf.Triple{S: rdf.NewIRI("http://l/a"), P: rdf.NewIRI("http://l/p"), O: rdf.NewString("x")})
	ds2.Add(rdf.Triple{S: rdf.NewIRI("http://r/b"), P: rdf.NewIRI("http://r/p"), O: rdf.NewString("y")})
	if scored := Link(ds1, ds2, DefaultConfig()); len(scored) != 0 {
		t.Errorf("links = %v, want none", scored)
	}
}

func TestLinkGenericValuesIgnored(t *testing.T) {
	dict := rdf.NewDict()
	ds1 := store.New("l", dict)
	ds2 := store.New("r", dict)
	// 20 entities per side all share the value "common" twice over two
	// predicates; no pair should be linked because the value frequency
	// exceeds MaxEvidenceFreq.
	for i := 0; i < 20; i++ {
		s1 := rdf.NewIRI(rdf.NewIRI("http://l/e").Value + string(rune('a'+i)))
		s2 := rdf.NewIRI(rdf.NewIRI("http://r/e").Value + string(rune('a'+i)))
		ds1.Add(rdf.Triple{S: s1, P: rdf.NewIRI("http://l/p1"), O: rdf.NewString("common")})
		ds1.Add(rdf.Triple{S: s1, P: rdf.NewIRI("http://l/p2"), O: rdf.NewString("shared")})
		ds2.Add(rdf.Triple{S: s2, P: rdf.NewIRI("http://r/q1"), O: rdf.NewString("common")})
		ds2.Add(rdf.Triple{S: s2, P: rdf.NewIRI("http://r/q2"), O: rdf.NewString("shared")})
	}
	if scored := Link(ds1, ds2, DefaultConfig()); len(scored) != 0 {
		t.Errorf("generic values produced %d links, want 0", len(scored))
	}
}

func TestLinkScoredSorted(t *testing.T) {
	p := datagen.GeneratePair(datagen.DBpediaDrugbank(0.3, 21))
	scored := Link(p.DS1, p.DS2, DefaultConfig())
	for i := 1; i < len(scored); i++ {
		if scored[i].Score > scored[i-1].Score {
			t.Fatalf("scores not descending at %d", i)
		}
	}
}

func TestLinkDefaultConfigApplied(t *testing.T) {
	ds1, ds2, dict := twoEntityStores()
	// Zero Config must fall back to DefaultConfig.
	scored := Link(ds1, ds2, Config{})
	if _, ok := findLink(dict, scored, "http://left/a1", "http://right/b1"); !ok {
		t.Error("zero config did not default")
	}
}

// candidates is the set of links scored.
func candidates(scored []linkset.Scored) *linkset.Set {
	links := make([]linkset.Link, len(scored))
	for i, s := range scored {
		links[i] = s.Link
	}
	return linkset.FromLinks(links)
}

// Regime tests: PARIS over the generated scenarios must land in the
// starting quality regimes the paper reports for its real data sets.
func TestParisRegimeDBpediaNYTimes(t *testing.T) {
	p := datagen.GeneratePair(datagen.DBpediaNYTimes(1, 42))
	scored := Link(p.DS1, p.DS2, DefaultConfig())
	q := linkset.Evaluate(candidates(scored), p.Truth)
	t.Logf("DBpedia-NYTimes start: %v", q)
	if q.Recall > 0.5 {
		t.Errorf("recall = %g, want low (paper ~0.2)", q.Recall)
	}
	if q.Recall < 0.03 {
		t.Errorf("recall = %g, want nonzero", q.Recall)
	}
	if q.Precision < 0.7 {
		t.Errorf("precision = %g, want high", q.Precision)
	}
}

func TestParisRegimeDBpediaDrugbank(t *testing.T) {
	p := datagen.GeneratePair(datagen.DBpediaDrugbank(1, 42))
	scored := Link(p.DS1, p.DS2, DefaultConfig())
	q := linkset.Evaluate(candidates(scored), p.Truth)
	t.Logf("DBpedia-Drugbank start: %v", q)
	if q.Recall < 0.8 {
		t.Errorf("recall = %g, want high (paper >0.95)", q.Recall)
	}
	if q.Precision > 0.6 {
		t.Errorf("precision = %g, want low (paper <0.3)", q.Precision)
	}
}

func TestParisRegimeDBpediaLexvo(t *testing.T) {
	p := datagen.GeneratePair(datagen.DBpediaLexvo(1, 42))
	scored := Link(p.DS1, p.DS2, DefaultConfig())
	q := linkset.Evaluate(candidates(scored), p.Truth)
	t.Logf("DBpedia-Lexvo start: %v", q)
	if q.Recall > 0.75 {
		t.Errorf("recall = %g, want moderate/low", q.Recall)
	}
	if q.Precision > 0.85 {
		t.Errorf("precision = %g, want depressed", q.Precision)
	}
}

func TestNormalizeValue(t *testing.T) {
	cases := []struct {
		term rdf.Term
		want string
	}{
		{rdf.NewString("  LeBron  "), "Llebron"},
		{rdf.NewString(""), ""},
		{rdf.NewIRI("http://x/A"), "Ihttp://x/A"},
		{rdf.NewBlank("b"), ""},
	}
	for _, c := range cases {
		if got := normalizeValue(c.term); got != c.want {
			t.Errorf("normalizeValue(%v) = %q, want %q", c.term, got, c.want)
		}
	}
}
