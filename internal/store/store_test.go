package store

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"alex/internal/rdf"
)

func tri(s, p, o string) rdf.Triple {
	return rdf.Triple{
		S: rdf.NewIRI("http://x/" + s),
		P: rdf.NewIRI("http://x/" + p),
		O: rdf.NewString(o),
	}
}

func triIRI(s, p, o string) rdf.Triple {
	return rdf.Triple{
		S: rdf.NewIRI("http://x/" + s),
		P: rdf.NewIRI("http://x/" + p),
		O: rdf.NewIRI("http://x/" + o),
	}
}

func TestStoreAddAndLen(t *testing.T) {
	s := New("test", rdf.NewDict())
	if !s.Add(tri("a", "p", "1")) {
		t.Error("first Add returned false")
	}
	if s.Add(tri("a", "p", "1")) {
		t.Error("duplicate Add returned true")
	}
	s.Add(tri("a", "q", "2"))
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}
}

func TestStoreContains(t *testing.T) {
	s := New("test", rdf.NewDict())
	s.Add(tri("a", "p", "1"))
	if !s.Contains(tri("a", "p", "1")) {
		t.Error("Contains missed present triple")
	}
	if s.Contains(tri("a", "p", "2")) {
		t.Error("Contains found absent triple")
	}
	if s.Contains(tri("zz", "p", "1")) {
		t.Error("Contains found triple with unknown subject")
	}
}

func TestStoreMatchPatterns(t *testing.T) {
	d := rdf.NewDict()
	s := New("test", d)
	s.Add(tri("a", "p", "1"))
	s.Add(tri("a", "q", "2"))
	s.Add(tri("b", "p", "1"))
	s.Add(tri("b", "q", "3"))

	id := func(tm rdf.Term) rdf.TermID {
		got, ok := d.Lookup(tm)
		if !ok {
			t.Fatalf("term %v not interned", tm)
		}
		return got
	}
	a := id(rdf.NewIRI("http://x/a"))
	p := id(rdf.NewIRI("http://x/p"))
	one := id(rdf.NewString("1"))

	cases := []struct {
		name    string
		s, p, o rdf.TermID
		want    int
	}{
		{"S??", a, rdf.NoTerm, rdf.NoTerm, 2},
		{"?P?", rdf.NoTerm, p, rdf.NoTerm, 2},
		{"??O", rdf.NoTerm, rdf.NoTerm, one, 2},
		{"SP?", a, p, rdf.NoTerm, 1},
		{"S?O", a, rdf.NoTerm, one, 1},
		{"?PO", rdf.NoTerm, p, one, 2},
		{"SPO", a, p, one, 1},
		{"???", rdf.NoTerm, rdf.NoTerm, rdf.NoTerm, 4},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := s.Match(c.s, c.p, c.o)
			if len(got) != c.want {
				t.Errorf("Match(%s) = %d results, want %d", c.name, len(got), c.want)
			}
		})
	}
}

func TestStoreMatchTerms(t *testing.T) {
	s := New("test", rdf.NewDict())
	s.Add(tri("a", "p", "1"))
	s.Add(tri("b", "p", "2"))
	got := s.MatchTerms(rdf.Term{}, rdf.NewIRI("http://x/p"), rdf.Term{})
	if len(got) != 2 {
		t.Fatalf("MatchTerms = %d results, want 2", len(got))
	}
	// Unknown term: no results, no panic.
	if got := s.MatchTerms(rdf.NewIRI("http://nowhere"), rdf.Term{}, rdf.Term{}); len(got) != 0 {
		t.Errorf("MatchTerms unknown subject = %d results", len(got))
	}
}

func TestStoreEntity(t *testing.T) {
	d := rdf.NewDict()
	s := New("test", d)
	s.Add(tri("a", "name", "Alice"))
	s.Add(tri("a", "age", "30"))
	s.Add(tri("b", "name", "Bob"))

	aID, _ := d.Lookup(rdf.NewIRI("http://x/a"))
	e, ok := s.Entity(aID)
	if !ok {
		t.Fatal("Entity not found")
	}
	if e.Len() != 2 {
		t.Errorf("entity has %d attributes, want 2", e.Len())
	}
	if e.Subject != aID {
		t.Error("entity subject mismatch")
	}
	if _, ok := s.Entity(rdf.TermID(9999)); ok {
		t.Error("Entity found for unknown subject")
	}
}

func TestStoreSubjectsDeterministic(t *testing.T) {
	d := rdf.NewDict()
	s := New("test", d)
	s.Add(tri("c", "p", "1"))
	s.Add(tri("a", "p", "1"))
	s.Add(tri("c", "q", "2")) // repeat subject must not duplicate
	s.Add(tri("b", "p", "1"))
	subj := s.Subjects()
	if len(subj) != 3 {
		t.Fatalf("Subjects = %d, want 3", len(subj))
	}
	want := []string{"http://x/c", "http://x/a", "http://x/b"}
	for i, id := range subj {
		if d.Term(id).Value != want[i] {
			t.Errorf("subject %d = %s, want %s", i, d.Term(id).Value, want[i])
		}
	}
}

func TestStorePredicates(t *testing.T) {
	s := New("test", rdf.NewDict())
	s.Add(tri("a", "p", "1"))
	s.Add(tri("a", "q", "2"))
	s.Add(tri("b", "p", "3"))
	preds := s.Predicates()
	if len(preds) != 2 {
		t.Errorf("Predicates = %d, want 2", len(preds))
	}
}

// TestStoreCount: Count reads posting-list lengths — the store's size for
// the all-wildcard pattern, the exact count for one bound position, the
// shortest bound list otherwise — and is 0 exactly when a bound term has no
// triple in that position.
func TestStoreCount(t *testing.T) {
	s := New("test", rdf.NewDict())
	s.Add(tri("a", "p", "1"))
	s.Add(tri("a", "q", "2"))
	s.Add(tri("b", "p", "1"))
	s.Add(tri("c", "p", "3"))
	id := func(iri string) rdf.TermID {
		v, ok := s.Dict().Lookup(rdf.NewIRI("http://x/" + iri))
		if !ok {
			t.Fatalf("%s not interned", iri)
		}
		return v
	}
	one, _ := s.Dict().Lookup(rdf.NewString("1"))
	a, p, q := id("a"), id("p"), id("q")
	for _, c := range []struct {
		name    string
		s, p, o rdf.TermID
		want    int
	}{
		{"all wildcards", rdf.NoTerm, rdf.NoTerm, rdf.NoTerm, 4},
		{"predicate", rdf.NoTerm, p, rdf.NoTerm, 3},
		{"subject", a, rdf.NoTerm, rdf.NoTerm, 2},
		{"object", rdf.NoTerm, rdf.NoTerm, one, 2},
		{"subject and predicate: the shorter list", a, p, rdf.NoTerm, 2},
		{"predicate and object", rdf.NoTerm, q, one, 1},
		{"unknown id", rdf.NoTerm, rdf.TermID(9999), rdf.NoTerm, 0},
		{"subject used only as an object", one, rdf.NoTerm, rdf.NoTerm, 0},
	} {
		if got := s.Count(c.s, c.p, c.o); got != c.want {
			t.Errorf("%s: Count = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestStoreStats(t *testing.T) {
	s := New("ds1", rdf.NewDict())
	s.Add(tri("a", "p", "1"))
	s.Add(tri("b", "q", "2"))
	st := s.Stats()
	if st.Name != "ds1" || st.Triples != 2 || st.Subjects != 2 || st.Predicates != 2 {
		t.Errorf("Stats = %+v", st)
	}
	if st.String() == "" {
		t.Error("Stats.String empty")
	}
}

func TestStoreFunctionality(t *testing.T) {
	d := rdf.NewDict()
	s := New("test", d)
	// name: one value per subject -> functionality 1.
	s.Add(tri("a", "name", "A"))
	s.Add(tri("b", "name", "B"))
	// type: two values for one subject -> functionality 0.5.
	s.Add(triIRI("a", "type", "T1"))
	s.Add(triIRI("a", "type", "T2"))

	nameID, _ := d.Lookup(rdf.NewIRI("http://x/name"))
	typeID, _ := d.Lookup(rdf.NewIRI("http://x/type"))
	if f := s.Functionality(nameID); f != 1 {
		t.Errorf("Functionality(name) = %g, want 1", f)
	}
	if f := s.Functionality(typeID); f != 0.5 {
		t.Errorf("Functionality(type) = %g, want 0.5", f)
	}
	if f := s.Functionality(rdf.TermID(9999)); f != 0 {
		t.Errorf("Functionality(unknown) = %g, want 0", f)
	}
}

func TestStoreLoad(t *testing.T) {
	s := New("test", rdf.NewDict())
	s.Load([]rdf.Triple{tri("a", "p", "1"), tri("b", "p", "2"), tri("a", "p", "1")})
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2 (duplicate dropped)", s.Len())
	}
}

// Property: for any set of added triples, Match with a fully-bound pattern
// agrees with Contains, and wildcard matches return supersets.
func TestStoreMatchConsistencyProperty(t *testing.T) {
	f := func(subjects, objects []uint8) bool {
		if len(subjects) == 0 || len(objects) == 0 {
			return true
		}
		d := rdf.NewDict()
		s := New("prop", d)
		n := len(subjects)
		if n > 40 {
			n = 40
		}
		for i := 0; i < n; i++ {
			s.Add(tri(
				fmt.Sprintf("s%d", subjects[i]%8),
				fmt.Sprintf("p%d", i%3),
				fmt.Sprintf("o%d", objects[i%len(objects)]%8),
			))
		}
		all := s.Match(rdf.NoTerm, rdf.NoTerm, rdf.NoTerm)
		if len(all) != s.Len() {
			return false
		}
		for _, tid := range all {
			exact := s.Match(tid.S, tid.P, tid.O)
			if len(exact) != 1 || exact[0] != tid {
				return false
			}
			bySubj := s.Match(tid.S, rdf.NoTerm, rdf.NoTerm)
			found := false
			for _, x := range bySubj {
				if x == tid {
					found = true
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestStoreOnlyGrows states the append-only property that the feature
// space's incremental maintenance relies on (feature.RightSide.set and
// Space.setLeftTokens): under a seeded mix of Add, AddID, AddIDs and Load,
// duplicates included, the previous Subjects() is a prefix of the current
// one, and each subject's previous Entity is a prefix of its current one
// in both predicates and objects. It is also what a View relies on: after
// each step, the view taken before it and At(previous length) match what a
// fresh store loaded with that log prefix matches, for every pattern shape,
// and list its subjects.
func TestStoreOnlyGrows(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	s := New("grow", rdf.NewDict())
	// A narrow term space makes duplicates, within and across calls, common.
	random := func() rdf.Triple {
		return tri(fmt.Sprintf("s%d", rng.Intn(16)), fmt.Sprintf("p%d", rng.Intn(3)), fmt.Sprintf("v%d", rng.Intn(10)))
	}
	intern := func(tr rdf.Triple) rdf.TripleID {
		d := s.Dict()
		return rdf.TripleID{S: d.Intern(tr.S), P: d.Intern(tr.P), O: d.Intern(tr.O)}
	}
	isPrefix := func(prev, cur []rdf.TermID) bool {
		return len(prev) <= len(cur) && slices.Equal(prev, cur[:len(prev)])
	}
	// checkView compares v with a fresh store holding the log's first n
	// triples, for each bound/unbound shape over random terms.
	checkView := func(step int, what string, v View, n int) {
		t.Helper()
		fresh := New("fresh", s.Dict())
		fresh.AddIDs(s.Since(0)[:n])
		if v.Generation() != uint64(n) || !slices.Equal(v.Subjects(), fresh.Subjects()) {
			t.Fatalf("step %d, %s: generation %d, subjects %v; want %d, %v", step, what, v.Generation(), v.Subjects(), n, fresh.Subjects())
		}
		for shape := 0; shape < 8; shape++ {
			q := intern(random())
			if shape&1 == 0 {
				q.S = rdf.NoTerm
			}
			if shape&2 == 0 {
				q.P = rdf.NoTerm
			}
			if shape&4 == 0 {
				q.O = rdf.NoTerm
			}
			var got []rdf.TripleID
			v.MatchEach(q.S, q.P, q.O, func(t rdf.TripleID) { got = append(got, t) })
			if want := fresh.Match(q.S, q.P, q.O); !slices.Equal(got, want) {
				t.Fatalf("step %d, %s: match %v = %v, want %v", step, what, q, got, want)
			}
		}
	}
	var prevSubs []rdf.TermID
	prevEnts := map[rdf.TermID]Entity{}
	prevView := s.Now()
	for step := 0; step < 300; step++ {
		prevLen := s.Len()
		switch op := rng.Intn(4); op {
		case 0:
			s.Add(random())
		case 1:
			s.AddID(intern(random()))
		default:
			batch := make([]rdf.Triple, 1+rng.Intn(8))
			for i := range batch {
				batch[i] = random()
			}
			if op == 3 {
				s.Load(batch)
				break
			}
			ids := make([]rdf.TripleID, len(batch))
			for i, tr := range batch {
				ids[i] = intern(tr)
			}
			s.AddIDs(ids)
		}
		subs := s.Subjects()
		if !isPrefix(prevSubs, subs) {
			t.Fatalf("step %d: subjects %v do not extend %v", step, subs, prevSubs)
		}
		for _, subj := range subs {
			e, _ := s.Entity(subj)
			prev := prevEnts[subj]
			if !isPrefix(prev.Preds, e.Preds) || !isPrefix(prev.Objs, e.Objs) {
				t.Fatalf("step %d: entity %d went from %v/%v to %v/%v", step, subj, prev.Preds, prev.Objs, e.Preds, e.Objs)
			}
			prevEnts[subj] = e
		}
		prevSubs = subs
		checkView(step, "view before the step", prevView, prevLen)
		checkView(step, "At(previous length)", s.At(uint64(prevLen)), prevLen)
		prevView = s.Now()
	}
	if s.Len() == 0 || s.Len() == 16*3*10 {
		t.Errorf("script left %d triples: it should neither stay empty nor fill the term space", s.Len())
	}
}
