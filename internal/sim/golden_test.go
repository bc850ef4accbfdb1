package sim

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"alex/internal/datagen"
	"alex/internal/rdf"
	"alex/internal/store"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/generic.golden from the current Generic")

// goldenExtraTerms are the strings and terms of this package's unit and
// property tests, plus a few typed, malformed and non-ASCII forms. Every
// ordered pair of them is frozen. Non-finite number spellings are left
// out on purpose: TestNonFiniteNumbersAreStrings owns those.
func goldenExtraTerms() []rdf.Term {
	var out []rdf.Term
	for _, s := range []string{
		"", "a", "abc", "abd", "xyz", "MARTHA", "MARHTA", "DIXON", "DICKSONX",
		"kitten", "sitting", "LeBron James", "James, LeBron", "lebron james",
		"Lebron James", "James LeBron", "a b c", "a b d", "a a b", "a b",
		"university of waterloo", "univeristy of waterloo",
		"LeBron James, Jr. (NBA-2013)", "hello world", "same", "x",
		"42", "3.25", "10", "5", "1984", "1988", "100", "99", "1984-12-30",
		" 42 ", "-7", "1e3", "0x10", "2013-13-45",
		"İstanbul", "ǅemal", "straße", "STRASSE", "日本語 テキスト", "\xff\xfe", "tab\tsep", "x_y",
	} {
		out = append(out, rdf.NewString(s))
	}
	out = append(out,
		rdf.NewInt(5), rdf.NewInt(10), rdf.NewInt(1984), rdf.NewInt(1988), rdf.NewInt(-3),
		rdf.NewFloat(2.5), rdf.NewFloat(10), rdf.NewFloat(1e300),
		rdf.NewDate(time.Date(1984, 12, 30, 0, 0, 0, 0, time.UTC)),
		rdf.NewDate(time.Date(2013, 6, 1, 0, 0, 0, 0, time.UTC)),
		rdf.NewTyped("abc", rdf.XSDInteger), rdf.NewTyped("12.5", rdf.XSDInteger),
		rdf.NewTyped("not-a-date", rdf.XSDDate), rdf.NewTyped("x", rdf.XSDDouble),
		rdf.NewTyped("true", rdf.XSDBoolean), rdf.NewLangString("bonjour", "fr"),
		rdf.NewIRI("http://x/a"), rdf.NewIRI("http://a/X_Y"), rdf.NewIRI("http://b/X_Y"),
		rdf.NewIRI("http://dbpedia.org/resource/LeBron_James"), rdf.NewIRI("http://cyc.org/concept/LeBron_James"),
		rdf.NewIRI("http://x#Alpha"), rdf.NewIRI("http://y/Alpha"), rdf.NewIRI("http://x/Apple"),
		rdf.NewIRI("http://x/Zebra"), rdf.NewIRI("http://x/"), rdf.NewIRI("http://x#"),
		rdf.NewBlank("b"), rdf.NewBlank("http://x/a"),
	)
	return out
}

// objectTerms returns a store's distinct object term ids in first-encounter
// order over its subjects.
func objectTerms(st *store.Store) []rdf.TermID {
	var out []rdf.TermID
	seen := map[rdf.TermID]bool{}
	for _, subj := range st.Subjects() {
		e, _ := st.Entity(subj)
		for _, o := range e.Objs {
			if !seen[o] {
				seen[o] = true
				out = append(out, o)
			}
		}
	}
	return out
}

// goldenPairs is the deterministic sample of (DS1 object, DS2 object) pairs
// of the DBpediaNYTimes(0.2, 1000) data sets whose Generic score is frozen:
// the full attribute matrix of every ground-truth link (the values that are
// renderings of one another), the first pairs of every ValueType combination
// the cross product holds, and a fixed stride over the rest.
func goldenPairs(t *testing.T, pair *datagen.Pair) [][2]rdf.TermID {
	t.Helper()
	const (
		perCombo = 40
		stride   = 31
		minPairs = 20000
	)
	var out [][2]rdf.TermID
	seen := map[[2]rdf.TermID]bool{}
	add := func(a, b rdf.TermID) {
		k := [2]rdf.TermID{a, b}
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	for _, l := range pair.Truth.Links() {
		e1, ok1 := pair.DS1.Entity(l.Left)
		e2, ok2 := pair.DS2.Entity(l.Right)
		if !ok1 || !ok2 {
			continue
		}
		for _, o1 := range e1.Objs {
			for _, o2 := range e2.Objs {
				add(o1, o2)
			}
		}
	}
	objs1, objs2 := objectTerms(pair.DS1), objectTerms(pair.DS2)
	types := func(ids []rdf.TermID) []ValueType {
		ts := make([]ValueType, len(ids))
		for i, id := range ids {
			ts[i] = Infer(pair.Dict.Term(id))
		}
		return ts
	}
	t1, t2 := types(objs1), types(objs2)
	combos := map[[2]ValueType]int{}
	n := 0
	for i, a := range objs1 {
		for j, b := range objs2 {
			c := [2]ValueType{t1[i], t2[j]}
			if combos[c] < perCombo {
				combos[c]++
				add(a, b)
			} else if n%stride == 0 {
				add(a, b)
			}
			n++
		}
	}
	if len(out) < minPairs {
		t.Fatalf("golden sample has %d pairs, want >= %d", len(out), minPairs)
	}
	if len(combos) < 9 {
		t.Fatalf("golden sample covers %d ValueType combinations, want >= 9", len(combos))
	}
	return out
}

// renderGenericGolden scores the golden sample with Generic and renders it:
// a term table, then one "p <a> <b> <hex-float score>" line per pair.
func renderGenericGolden(t *testing.T) []byte {
	t.Helper()
	pair := datagen.GeneratePair(datagen.DBpediaNYTimes(0.2, 1000))
	var terms []rdf.Term
	index := map[rdf.Term]int{}
	idx := func(term rdf.Term) int {
		i, ok := index[term]
		if !ok {
			i = len(terms)
			index[term] = i
			terms = append(terms, term)
		}
		return i
	}
	type scored struct {
		a, b int
		s    float64
	}
	var rows []scored
	for _, p := range goldenPairs(t, pair) {
		a, b := pair.Dict.Term(p[0]), pair.Dict.Term(p[1])
		rows = append(rows, scored{idx(a), idx(b), Generic(a, b)})
	}
	extra := goldenExtraTerms()
	for _, a := range extra {
		for _, b := range extra {
			rows = append(rows, scored{idx(a), idx(b), Generic(a, b)})
		}
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "# sim.Generic scores, bit-exact (hex floats). Regenerate with: go test ./internal/sim -run TestGenericGolden -update\n")
	fmt.Fprintf(&buf, "terms %d pairs %d\n", len(terms), len(rows))
	for i, term := range terms {
		fmt.Fprintf(&buf, "t %d %s\n", i, strconv.Quote(term.String()))
	}
	for _, r := range rows {
		fmt.Fprintf(&buf, "p %d %d %s\n", r.a, r.b, strconv.FormatFloat(r.s, 'x', -1, 64))
	}
	return buf.Bytes()
}

// TestGenericGolden holds Generic to the scores recorded before per-term
// profiles existed: every score must reproduce bit for bit.
func TestGenericGolden(t *testing.T) {
	got := renderGenericGolden(t)
	path := filepath.Join("testdata", "generic.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create it): %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("generic.golden line %d differs:\n got  %s\n want %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("generic.golden length differs: got %d lines, want %d", len(gl), len(wl))
}
