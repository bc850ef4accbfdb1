package sparql

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"alex/internal/rdf"
	"alex/internal/store"
)

// regexStore holds n labelled subjects; each also names a pattern and a
// flag string, drawn from two values apiece, for the variable-pattern
// tests.
func regexStore(n int) *store.Store {
	st := store.New("regex", rdf.NewDict())
	p := func(s string) rdf.Term { return rdf.NewIRI("http://x/" + s) }
	for i := 0; i < n; i++ {
		s := p(fmt.Sprintf("s%d", i))
		st.Add(rdf.Triple{S: s, P: p("label"), O: rdf.NewString(fmt.Sprintf("%c player %d\nsecond line", 'A'+i%26, i))})
		st.Add(rdf.Triple{S: s, P: p("pat"), O: rdf.NewString([]string{"^[a-m]", "line$"}[i%2])})
		st.Add(rdf.Triple{S: s, P: p("flags"), O: rdf.NewString([]string{"i", "im"}[i/2%2])})
	}
	return st
}

func regexRows(t *testing.T, st *store.Store, filter string) int {
	t.Helper()
	res, err := Execute(st, `SELECT ?s WHERE { ?s <http://x/label> ?l . FILTER(`+filter+`) }`)
	if err != nil {
		t.Fatalf("%s: %v", filter, err)
	}
	return len(res.Rows)
}

func TestRegexFlags(t *testing.T) {
	st := regexStore(26) // one label per initial letter
	for _, c := range []struct {
		filter string
		want   int
	}{
		{`REGEX(?l, "^[A-M]")`, 13},
		{`REGEX(?l, "^[a-m]")`, 0},
		{`REGEX(?l, "^[a-m]", "i")`, 13},
		{`REGEX(?l, "^[a-m]", "")`, 0},
		// Without s the dot stops at the newline; without m, ^ and $ see
		// only the ends of the whole value.
		{`REGEX(?l, "player.*second")`, 0},
		{`REGEX(?l, "player.*second", "s")`, 26},
		{`REGEX(?l, "^second")`, 0},
		{`REGEX(?l, "^second", "m")`, 26},
		{`REGEX(?l, "^SECOND.LINE$", "ism")`, 26},
		// An unsupported flag and an invalid pattern are evaluation
		// errors: every row is rejected, the query is not.
		{`REGEX(?l, "^[A-M]", "x")`, 0},
		{`REGEX(?l, "^[A-M]", "iq")`, 0},
		{`REGEX(?l, "(")`, 0},
		{`REGEX(?l, "(") || REGEX(?l, "^A")`, 1},
	} {
		if got := regexRows(t, st, c.filter); got != c.want {
			t.Errorf("%s: %d rows, want %d", c.filter, got, c.want)
		}
	}
}

// TestRegexConstantCompiledWithTheQuery: a constant pattern — the invalid
// one too — is compiled with the query, so that evaluations compile
// nothing.
func TestRegexConstantCompiledWithTheQuery(t *testing.T) {
	st := regexStore(40)
	prep, err := Prepare(`SELECT ?s WHERE { ?s <http://x/label> ?l . FILTER(REGEX(?l, "^[a-m]", "i") && !REGEX(?l, "(")) } `)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(prep.layout.regex); n != 2 {
		t.Fatalf("layout holds %d compiled patterns, want 2", n)
	}
	if rp := prep.layout.regex[regexKey{pattern: "("}]; rp.err == nil {
		t.Error("the invalid pattern's compile error is not kept")
	}
	p := storeProg(st, &prep.layout)
	if _, err := p.run(context.Background(), prep.query, nil); err != nil {
		t.Fatal(err)
	}
	if len(p.regexMemo) != 0 {
		t.Errorf("the evaluation compiled %d patterns the layout should hold", len(p.regexMemo))
	}
}

// TestRegexVariablePatternCompiledOncePerValue: pattern and flags come
// from columns with two values each; one evaluation compiles the four
// combinations once, however many rows carry them.
func TestRegexVariablePatternCompiledOncePerValue(t *testing.T) {
	const query = `SELECT ?s WHERE { ?s <http://x/label> ?l . ?s <http://x/pat> ?p . ?s <http://x/flags> ?f . FILTER(REGEX(?l, ?p, ?f)) }`
	q, err := Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	lay := &Compile(q).layout
	if lay.regex != nil {
		t.Fatalf("a variable pattern was compiled with the query: %v", lay.regex)
	}
	run := func(st *store.Store) (rows int, compiled int) {
		p := storeProg(st, lay)
		res, err := p.run(context.Background(), q, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res.Len(), len(p.regexMemo)
	}
	small, large := regexStore(40), regexStore(400)
	// "^[a-m]" under i matches initials A–M; "line$" matches only under m.
	if rows, compiled := run(small); compiled != 4 || rows == 0 || rows == 40 {
		t.Errorf("40 subjects: %d rows, %d patterns compiled; want some rows and 4 patterns", rows, compiled)
	}
	if _, compiled := run(large); compiled != 4 {
		t.Errorf("400 subjects: %d patterns compiled, want 4", compiled)
	}
	// One compile is dozens of objects; a compile per row would add
	// thousands over the 360 extra subjects. Rows themselves cost a few
	// slice growths.
	aSmall := testing.AllocsPerRun(10, func() { run(small) })
	aLarge := testing.AllocsPerRun(10, func() { run(large) })
	if aLarge-aSmall > 360 {
		t.Errorf("allocations grow with the rows filtered: %.0f for 40 subjects, %.0f for 400", aSmall, aLarge)
	}
}

// TestRegexConstantAllocationsDoNotGrowWithRows is the same guard for the
// benchmark's regex template: a constant pattern over more rows allocates
// no more than the rows' own slices (and, under the race detector, what
// its sync.Pool drops make regexp reallocate — far below one compile).
func TestRegexConstantAllocationsDoNotGrowWithRows(t *testing.T) {
	prep, err := Prepare(`SELECT ?s ?l WHERE { ?s <http://x/label> ?l . FILTER regex(?l, "^[A-M]") }`)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(st *store.Store) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, err := prep.EvalSlots(st); err != nil {
				t.Fatal(err)
			}
		})
	}
	aSmall, aLarge := allocs(regexStore(40)), allocs(regexStore(800))
	if aLarge-aSmall > 380 {
		t.Errorf("allocations grow with the rows filtered: %.0f for 40 rows, %.0f for 800", aSmall, aLarge)
	}
}

// TestPreparedRegexConcurrent evaluates one Prepared, and so one compiled
// pattern, from 8 goroutines; run under -race.
func TestPreparedRegexConcurrent(t *testing.T) {
	st := regexStore(200)
	prep, err := Prepare(`SELECT ?s WHERE { ?s <http://x/label> ?l . ?s <http://x/pat> ?p . FILTER(REGEX(?l, "^[a-m]", "i") || REGEX(?l, ?p)) }`)
	if err != nil {
		t.Fatal(err)
	}
	want, err := prep.EvalSlots(st)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				res, err := prep.EvalSlots(st)
				if err != nil {
					t.Error(err)
					return
				}
				if res.Len() != want.Len() {
					t.Errorf("%d rows, want %d", res.Len(), want.Len())
					return
				}
			}
		}()
	}
	wg.Wait()
}
