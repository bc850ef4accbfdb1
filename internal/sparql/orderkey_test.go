package sparql

import (
	"context"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"alex/internal/rdf"
	"alex/internal/store"
)

// The naive reference for the keyed ORDER BY: the sort as it was before
// sort keys, decoding both terms and calling compareTerms on every
// comparison; and the numeric test as it was before the shape check moved
// in front of the parse.

func naiveSortSlots(p *slotProg, rows *Rows, keys []OrderKey, slotOf func(string) int) *Rows {
	cols := make([]int, len(keys))
	for i, k := range keys {
		cols[i] = slotOf(k.Var)
	}
	perm := make([]int, rows.n)
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool {
		ra, rb := rows.Row(perm[a]), rows.Row(perm[b])
		for ki, k := range keys {
			var ia, ib rdf.TermID
			if c := cols[ki]; c >= 0 {
				ia, ib = ra[c], rb[c]
			}
			if ia == rdf.NoTerm && ib == rdf.NoTerm {
				continue
			}
			if ia == rdf.NoTerm || ib == rdf.NoTerm {
				less := ia == rdf.NoTerm
				if k.Desc {
					less = !less
				}
				return less
			}
			c := compareTerms(p.ids.Term(ia), p.ids.Term(ib))
			if c == 0 {
				continue
			}
			if k.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	out := NewRows(rows.w, rows.n)
	for _, i := range perm {
		out.Push(rows.Row(i))
	}
	return out
}

func naiveNumeric(t rdf.Term) (float64, bool) {
	looks := func(s string) bool {
		s = strings.TrimSpace(s)
		if s == "" {
			return false
		}
		for i, c := range s {
			if c >= '0' && c <= '9' || c == '.' {
				continue
			}
			if i == 0 && (c == '-' || c == '+') {
				continue
			}
			return false
		}
		return true
	}
	f, ok := t.AsFloat()
	if !ok || !looks(t.Value) {
		return 0, false
	}
	return f, true
}

// orderTerms is the column material: numbers in every spelling the
// numeric test accepts, strings that only look like numbers, and every
// other kind of term, several of them equal under the order but distinct
// as terms so that stability is visible.
func orderTerms() []rdf.Term {
	var out []rdf.Term
	for _, s := range []string{
		"7", " 7 ", "7.0", "+7", "07", "-3", "-3.50", ".5", "+.5", "5.", "0", "-0", "10", "9", "100",
		"1e3", "NaN", "Inf", "-Inf", "0x10", "1_000", ".", "+", "-", "", " ", "1.2.3", "--1", "1-", "٣",
		strings.Repeat("9", 400), "abc", "Abc", "abd", "é", "10 apples", "\t42\n",
	} {
		out = append(out, rdf.NewString(s))
	}
	out = append(out,
		rdf.NewInt(7), rdf.NewInt(-3), rdf.NewTyped("7.0", rdf.XSDDouble), rdf.NewTyped("7", rdf.XSDDate),
		rdf.NewLangString("7", "en"), rdf.NewLangString("abc", "en"), rdf.NewTyped("abc", rdf.XSDString),
		rdf.NewIRI("http://x/a"), rdf.NewIRI("http://x/b"), rdf.NewIRI("7"), rdf.NewIRI("abc"),
		rdf.NewBlank("b0"), rdf.NewBlank("7"), rdf.NewBlank("abc"),
	)
	return out
}

func TestSortKeyMatchesCompareTerms(t *testing.T) {
	terms := orderTerms()
	for _, a := range terms {
		nf, nok := naiveNumeric(a)
		if f, ok := numericValue(a); ok != nok || f != nf {
			t.Errorf("numericValue(%s) = %v, %v; the parse-first definition gives %v, %v", a, f, ok, nf, nok)
		}
		ka := newSortKey(a)
		for _, b := range terms {
			kb := newSortKey(b)
			if got, want := ka.compare(&kb), compareTerms(a, b); got != want {
				t.Errorf("compare(%s, %s) = %d, compareTerms gives %d", a, b, got, want)
			}
		}
	}
	// The shape check alone must agree with the parser on its alphabet.
	rng := rand.New(rand.NewSource(16))
	const alphabet = "0123456789+-. e\tN_x"
	for i := 0; i < 20000; i++ {
		b := make([]byte, rng.Intn(7))
		for j := range b {
			b[j] = alphabet[rng.Intn(len(alphabet))]
		}
		term := rdf.NewString(string(b))
		nf, nok := naiveNumeric(term)
		if f, ok := numericValue(term); ok != nok || f != nf {
			t.Fatalf("numericValue(%q) = %v, %v; the parse-first definition gives %v, %v", b, f, ok, nf, nok)
		}
	}
}

// TestKeyedSortMatchesNaive sorts generated row sets — dictionary ids,
// overflow ids and unbound slots, ASC and DESC, one to three keys with
// ties, a key variable with no slot — through sortSlots and through the
// reference, and requires the same rows in the same order.
func TestKeyedSortMatchesNaive(t *testing.T) {
	st := store.New("order", rdf.NewDict())
	terms := orderTerms()
	// Every other term is known to the store; the rest get overflow ids.
	for i := 0; i < len(terms); i += 2 {
		st.Add(rdf.Triple{S: rdf.NewIRI("http://x/s"), P: rdf.NewIRI("http://x/p"), O: terms[i]})
	}
	q, err := Parse(`SELECT * WHERE { ?a ?b ?c }`)
	if err != nil {
		t.Fatal(err)
	}
	p := storeProg(st, &Compile(q).layout)
	pool := []rdf.TermID{rdf.NoTerm}
	overflow := 0
	for _, term := range terms {
		id := p.ids.ID(term)
		if !p.ids.InDict(id) {
			overflow++
		}
		pool = append(pool, id)
	}
	if overflow == 0 || overflow == len(terms) {
		t.Fatalf("%d of %d terms have overflow ids; the test needs both kinds", overflow, len(terms))
	}

	rng := rand.New(rand.NewSource(16))
	vars := []string{"a", "b", "c", "noslot"}
	for round := 0; round < 300; round++ {
		n := rng.Intn(120)
		// A narrow draw makes ties on the leading keys common.
		draw := 2 + rng.Intn(len(pool)-1)
		rows := NewRows(p.width(), n)
		for i := 0; i < n; i++ {
			r := rows.pushEmpty()
			for j := range r {
				r[j] = pool[rng.Intn(draw)]
			}
		}
		keys := make([]OrderKey, 1+rng.Intn(3))
		for i := range keys {
			keys[i] = OrderKey{Var: vars[rng.Intn(len(vars))], Desc: rng.Intn(2) == 0}
		}
		want := naiveSortSlots(p, rows, keys, p.lay.Slot)
		got, err := p.sortSlots(context.Background(), rows, keys, p.lay.Slot)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.data, want.data) {
			t.Fatalf("round %d: ORDER BY %v over %d rows: keyed sort and reference disagree\n got %v\nwant %v",
				round, keys, n, got.data, want.data)
		}
	}
}

// TestSortAllocatesNoPerComparisonGarbage: sorting n labels costs the key
// array, the permutation and the output rows, however many comparisons
// the sort makes — no decoded term, no parse error.
func TestSortAllocatesNoPerComparisonGarbage(t *testing.T) {
	st := store.New("labels", rdf.NewDict())
	q, err := Parse(`SELECT * WHERE { ?s ?p ?l }`)
	if err != nil {
		t.Fatal(err)
	}
	p := storeProg(st, &Compile(q).layout)
	rng := rand.New(rand.NewSource(16))
	build := func(n int) *Rows {
		rows := NewRows(p.width(), n)
		for i := 0; i < n; i++ {
			label := rdf.NewString("Player " + strings.Repeat("x", rng.Intn(5)) + string(rune('A'+rng.Intn(26))))
			st.Add(rdf.Triple{S: rdf.NewIRI("http://x/s"), P: rdf.NewIRI("http://x/l"), O: label})
			rows.pushEmpty()[p.lay.Slot("l")] = p.ids.ID(label)
		}
		return rows
	}
	keys := []OrderKey{{Var: "l"}, {Var: "s"}}
	small, large := build(50), build(800)
	allocs := func(rows *Rows) float64 {
		return testing.AllocsPerRun(20, func() { p.sortSlots(context.Background(), rows, keys, p.lay.Slot) })
	}
	a50, a800 := allocs(small), allocs(large)
	if a800 > a50+2 || a50 > 12 {
		t.Errorf("sortSlots allocates %.0f objects for 50 rows and %.0f for 800; want a constant handful", a50, a800)
	}
}
