package store

import (
	"bytes"
	"runtime"
	"slices"
	"strings"
	"testing"

	"alex/internal/rdf"
)

// The store's differential model: a slice of triples in insertion order.
// FuzzStoreModel replays one script of inserts through every insert path
// into a store and into the model, and after each step compares every read
// the store answers with what the model derives from its slice.

var (
	modelSubjects = []rdf.Term{
		rdf.NewIRI("http://x/a"), rdf.NewIRI("http://x/b"), rdf.NewIRI("http://x/c"),
		rdf.NewIRI("http://x/d"), rdf.NewIRI("http://y/a"), rdf.NewIRI("http://y/e"),
		rdf.NewBlank("b0"), rdf.NewBlank("b1"),
	}
	modelPredicates = []rdf.Term{
		rdf.NewIRI("http://x/p"), rdf.NewIRI("http://x/q"),
		rdf.NewIRI(rdf.RDFType), rdf.NewIRI(rdf.OWLSameAs),
	}
	modelObjects = append(slices.Clone(modelSubjects),
		rdf.NewString("a"), rdf.NewString(`quote " and \ and
newline`), rdf.NewLangString("a", "en"), rdf.NewLangString("a", "fr"),
		rdf.NewTyped("a", rdf.XSDInteger), rdf.NewInt(7), rdf.NewString(""),
		rdf.NewString("http://x/a"))
)

// modelTriple reads one triple from three script bytes.
func modelTriple(b [3]byte) rdf.Triple {
	return rdf.Triple{
		S: modelSubjects[int(b[0])%len(modelSubjects)],
		P: modelPredicates[int(b[1])%len(modelPredicates)],
		O: modelObjects[int(b[2])%len(modelObjects)],
	}
}

// storeModel is the reference store: the log as materialized triples.
type storeModel struct{ log []rdf.Triple }

// add appends t unless the log holds it, as Store.AddID does.
func (m *storeModel) add(t rdf.Triple) {
	if !slices.Contains(m.log, t) {
		m.log = append(m.log, t)
	}
}

// matches reports whether t fits the pattern, a zero Term being a wildcard.
func matches(t, pat rdf.Triple) bool {
	return (pat.S.IsZero() || t.S == pat.S) && (pat.P.IsZero() || t.P == pat.P) && (pat.O.IsZero() || t.O == pat.O)
}

// count is Store.Count's contract over the first n triples: the size of the
// smallest posting list among the bound positions, n when none is bound.
func (m *storeModel) count(n int, pat rdf.Triple) int {
	c := n
	for role, term := range [3]rdf.Term{pat.S, pat.P, pat.O} {
		if term.IsZero() {
			continue
		}
		k := 0
		for _, t := range m.log[:n] {
			if [3]rdf.Term{t.S, t.P, t.O}[role] == term {
				k++
			}
		}
		c = min(c, k)
	}
	return c
}

// subjects returns the distinct subjects of the first n triples in first
// insertion order.
func (m *storeModel) subjects(n int) []rdf.Term {
	var out []rdf.Term
	for _, t := range m.log[:n] {
		if !slices.Contains(out, t.S) {
			out = append(out, t.S)
		}
	}
	return out
}

// maxStoreScript caps a script: the universe holds 8×4×16 triples, so a
// longer script adds repeats, not reach.
const maxStoreScript = 192

// runStoreScript replays script against a fresh store whose N-Triples
// loads run at the given worker count, checking the store against the
// model after every step, and returns the final snapshot. Each op is one
// byte (its low three bits pick it) followed by its operands; a batch is a
// length byte (mod 8) and three bytes per triple:
//
//	0, 6, 7  Add(triple)
//	1        AddIDs(batch), interned in batch order first
//	2        Load(batch)
//	3        LoadNTriples(batch): at more than one worker, padded with
//	         comment lines past the serial threshold so it parses in chunks
//	4        snapshot round trip: the store is replaced by its restore,
//	         into the same dictionary (bit 3 set) or into a fresh one
//	5        LoadNTriples(batch) followed by a malformed line: must fail
//	         and change neither the store nor the dictionary
func runStoreScript(t *testing.T, script []byte, workers int) []byte {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
	if len(script) > maxStoreScript {
		script = script[:maxStoreScript]
	}
	next := func() (byte, bool) {
		if len(script) == 0 {
			return 0, false
		}
		b := script[0]
		script = script[1:]
		return b, true
	}
	batch := func() []rdf.Triple {
		n, _ := next()
		var out []rdf.Triple
		for i := 0; i < int(n&7); i++ {
			var b [3]byte
			for j := range b {
				b[j], _ = next()
			}
			out = append(out, modelTriple(b))
		}
		return out
	}
	s := New("model", rdf.NewDict())
	// ref interns every term of every insert in script order, as an Add
	// loop would: the store's dictionary must assign the same ids.
	ref := rdf.NewDict()
	var m storeModel
	var gens []int
	for {
		op, ok := next()
		if !ok {
			break
		}
		var step []rdf.Triple
		switch op & 7 {
		case 0, 6, 7:
			var b [3]byte
			for j := range b {
				b[j], _ = next()
			}
			step = []rdf.Triple{modelTriple(b)}
			s.Add(step[0])
		case 1:
			step = batch()
			ids := make([]rdf.TripleID, len(step))
			for i, tr := range step {
				ids[i] = rdf.TripleID{S: s.Dict().Intern(tr.S), P: s.Dict().Intern(tr.P), O: s.Dict().Intern(tr.O)}
			}
			s.AddIDs(ids)
		case 2:
			step = batch()
			s.Load(step)
		case 3:
			step = batch()
			if _, err := LoadNTriples(s, strings.NewReader(modelDoc(step, workers, "")), LoadOptions{}); err != nil {
				t.Fatalf("LoadNTriples(%v): %v", step, err)
			}
		case 4:
			var buf bytes.Buffer
			if err := s.WriteSnapshot(&buf); err != nil {
				t.Fatal(err)
			}
			dict := s.Dict()
			if op&8 == 0 {
				dict = rdf.NewDict()
			}
			restored, err := ReadSnapshot(&buf, dict)
			if err != nil {
				t.Fatalf("snapshot round trip: %v", err)
			}
			s = restored
		case 5:
			bad := batch()
			terms := s.Dict().Len()
			if _, err := LoadNTriples(s, strings.NewReader(modelDoc(bad, workers, "<http://x/broken> .\n")), LoadOptions{}); err == nil {
				t.Fatalf("LoadNTriples accepted a malformed document")
			}
			if s.Dict().Len() != terms {
				t.Fatalf("failed load grew the dictionary from %d to %d terms", terms, s.Dict().Len())
			}
		}
		for _, tr := range step {
			ref.Intern(tr.S)
			ref.Intern(tr.P)
			ref.Intern(tr.O)
			m.add(tr)
		}
		gens = append(gens, len(m.log))
		checkStoreModel(t, s, ref, &m, gens, step)
	}
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// modelDoc renders triples as N-Triples, then tail. At more than one worker
// each statement is followed by a comment line long enough that the whole
// document passes serialThreshold.
func modelDoc(triples []rdf.Triple, workers int, tail string) string {
	var b strings.Builder
	pad := ""
	if workers > 1 {
		pad = "#" + strings.Repeat("-", serialThreshold/(len(triples)+1)) + "\n"
		b.WriteString(pad)
	}
	for _, tr := range triples {
		b.WriteString(tr.String())
		b.WriteByte('\n')
		b.WriteString(pad)
	}
	b.WriteString(tail)
	return b.String()
}

// checkStoreModel compares s with the model: the dictionary with ref, and
// Len, Generation, Stats, Subjects, Predicates, and every Match shape,
// Count and Entity for each probe (the step's triples and one triple the
// log may not hold), now and, for matches, counts and subjects, at every
// earlier generation in gens.
func checkStoreModel(t *testing.T, s *Store, ref *rdf.Dict, m *storeModel, gens []int, step []rdf.Triple) {
	t.Helper()
	d := s.Dict()
	if d.Len() != ref.Len() {
		t.Fatalf("dictionary holds %d terms, an Add loop %d", d.Len(), ref.Len())
	}
	for id := rdf.TermID(1); int(id) <= ref.Len(); id++ {
		if d.Term(id) != ref.Term(id) {
			t.Fatalf("id %d is %v, an Add loop gives it to %v", id, d.Term(id), ref.Term(id))
		}
	}
	n := len(m.log)
	if s.Len() != n || s.Generation() != uint64(n) {
		t.Fatalf("Len %d, Generation %d; the model holds %d triples", s.Len(), s.Generation(), n)
	}
	id := func(term rdf.Term) rdf.TermID {
		if term.IsZero() {
			return rdf.NoTerm
		}
		got, ok := d.Lookup(term)
		if !ok {
			t.Fatalf("%v is in the log but not in the dictionary", term)
		}
		return got
	}
	ids := func(terms []rdf.Term) []rdf.TermID {
		out := make([]rdf.TermID, len(terms))
		for i, term := range terms {
			out[i] = id(term)
		}
		return out
	}
	subjects := m.subjects(n)
	var preds []rdf.TermID
	for _, tr := range m.log {
		if p := id(tr.P); !slices.Contains(preds, p) {
			preds = append(preds, p)
		}
	}
	slices.Sort(preds)
	want := Stats{Name: s.Name(), Triples: n, Subjects: len(subjects), Predicates: len(preds)}
	if got := s.Stats(); got != want {
		t.Fatalf("Stats = %+v, want %+v", got, want)
	}
	if got := s.Subjects(); !slices.Equal(got, ids(subjects)) {
		t.Fatalf("Subjects = %v, want %v", got, ids(subjects))
	}
	if got := s.Predicates(); !slices.Equal(got, preds) {
		t.Fatalf("Predicates = %v, want %v", got, preds)
	}
	probes := append(slices.Clone(step), modelTriple([3]byte{byte(n), byte(n / 3), byte(n / 2)}))
	for _, probe := range probes {
		if _, known := d.Lookup(probe.S); !known {
			continue // a probe's terms are in the dictionary once any insert named them
		}
		if _, known := d.Lookup(probe.O); !known {
			continue
		}
		if _, known := d.Lookup(probe.P); !known {
			continue
		}
		for shape := 0; shape < 8; shape++ {
			var pat rdf.Triple
			if shape&4 != 0 {
				pat.S = probe.S
			}
			if shape&2 != 0 {
				pat.P = probe.P
			}
			if shape&1 != 0 {
				pat.O = probe.O
			}
			var want []rdf.TripleID
			for _, tr := range m.log {
				if matches(tr, pat) {
					want = append(want, rdf.TripleID{S: id(tr.S), P: id(tr.P), O: id(tr.O)})
				}
			}
			sID, pID, oID := id(pat.S), id(pat.P), id(pat.O)
			if got := s.Match(sID, pID, oID); !slices.Equal(got, want) {
				t.Fatalf("Match%v = %v, want %v", pat, got, want)
			}
			if got, want := s.Count(sID, pID, oID), m.count(n, pat); got != want {
				t.Fatalf("Count%v = %d, want %d", pat, got, want)
			}
			for _, g := range gens {
				var got []rdf.TripleID
				s.At(uint64(g)).MatchEach(sID, pID, oID, func(tr rdf.TripleID) { got = append(got, tr) })
				var want []rdf.TripleID
				for _, tr := range m.log[:g] {
					if matches(tr, pat) {
						want = append(want, rdf.TripleID{S: id(tr.S), P: id(tr.P), O: id(tr.O)})
					}
				}
				if !slices.Equal(got, want) {
					t.Fatalf("At(%d).MatchEach%v = %v, want %v", g, pat, got, want)
				}
				if got, want := s.At(uint64(g)).Count(sID, pID, oID), m.count(g, pat); got != want {
					t.Fatalf("At(%d).Count%v = %d, want %d", g, pat, got, want)
				}
			}
		}
		e, ok := s.Entity(id(probe.S))
		var wantPreds, wantObjs []rdf.TermID
		for _, tr := range m.log {
			if tr.S == probe.S {
				wantPreds = append(wantPreds, id(tr.P))
				wantObjs = append(wantObjs, id(tr.O))
			}
		}
		if ok != (len(wantPreds) > 0) || !slices.Equal(e.Preds, wantPreds) || !slices.Equal(e.Objs, wantObjs) {
			t.Fatalf("Entity(%v) = %+v, %v; want preds %v, objects %v", probe.S, e, ok, wantPreds, wantObjs)
		}
	}
	for _, g := range gens {
		if got, want := s.At(uint64(g)).Subjects(), ids(m.subjects(g)); !slices.Equal(got, want) {
			t.Fatalf("At(%d).Subjects = %v, want %v", g, got, want)
		}
	}
}

// FuzzStoreModel runs each script at one and at four workers against the
// model; the two runs must also end in byte-identical snapshots.
func FuzzStoreModel(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 1, 1, 1})
	f.Add([]byte{2, 3, 0, 1, 2, 3, 4, 5, 6, 7, 8, 0, 0, 9, 4, 0, 1, 2})
	f.Add([]byte{3, 4, 0, 0, 0, 1, 1, 1, 2, 2, 2, 0, 0, 0, 12, 1, 2, 5, 5, 5, 9, 9, 9})
	f.Add([]byte{1, 2, 3, 3, 3, 3, 3, 3, 5, 2, 7, 7, 7, 4, 2, 8, 8, 8, 9, 9, 9, 3, 2, 8, 8, 8, 10, 10, 10})
	f.Add([]byte{6, 1, 1, 1, 2, 3, 1, 1, 2, 2, 2, 3, 3, 3, 0, 6, 1, 1, 1, 1, 1, 15, 7, 1, 7, 7, 4, 11, 3, 7, 4, 3, 2, 1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20})
	f.Fuzz(func(t *testing.T, script []byte) {
		one := runStoreScript(t, script, 1)
		four := runStoreScript(t, script, 4)
		if !bytes.Equal(one, four) {
			t.Fatalf("the script's snapshot at one worker differs from the one at four")
		}
	})
}
