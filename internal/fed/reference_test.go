package fed

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"alex/internal/linkset"
	"alex/internal/rdf"
	"alex/internal/sparql"
	"alex/internal/store"
)

// The tests in this file hold the federation to one meaning of a sameAs
// link: one hop. A link a~b lets a pattern about a read a triple about b,
// at the subject, at the object or at both, and no further: the chain a~b,
// b~c does not make a and c one entity. The reference states that meaning
// without the federation's machinery. It copies every member's triples
// into one store, adds each triple again with its subject, its object or
// both replaced by an entity one link away, and evaluates basic graph
// patterns there with the slot engine.
//
// Answers are compared as sets of bindings, never as multisets: the
// federation may reach one binding through several links. The federation
// keeps the entity a query asked about where the reference shows its
// alias, so the two agree at each variable up to one link.

const ex = "http://x/"

func iri(name string) rdf.Term { return rdf.NewIRI(ex + name) }

// referenceStore materialises one-hop sameAs over f's in-process members
// and its published links. Only IRIs are replaced: a link never stands in
// for a literal.
func referenceStore(f *Federation) *store.Store {
	aliases := map[rdf.TermID][]rdf.TermID{}
	for _, l := range f.Links().Links() {
		aliases[l.Left] = append(aliases[l.Left], l.Right)
		aliases[l.Right] = append(aliases[l.Right], l.Left)
	}
	ends := func(x rdf.TermID) []rdf.TermID {
		if !f.dict.Term(x).IsIRI() {
			return []rdf.TermID{x}
		}
		return append([]rdf.TermID{x}, aliases[x]...)
	}
	ref := store.New("reference", f.dict)
	for i := range f.sources {
		for _, t := range storeOf(f, i).Match(rdf.NoTerm, rdf.NoTerm, rdf.NoTerm) {
			for _, s := range ends(t.S) {
				for _, o := range ends(t.O) {
					ref.AddID(rdf.TripleID{S: s, P: t.P, O: o})
				}
			}
		}
	}
	return ref
}

// linkedTerms is f's published links as term pairs, in both directions.
func linkedTerms(f *Federation) map[[2]rdf.Term]bool {
	out := map[[2]rdf.Term]bool{}
	for _, l := range f.Links().Links() {
		a, b := f.dict.Term(l.Left), f.dict.Term(l.Right)
		out[[2]rdf.Term{a, b}], out[[2]rdf.Term{b, a}] = true, true
	}
	return out
}

// oneLinkApart reports whether a and b bind the same variables to the same
// terms or, at any variable, to the two ends of one link.
func oneLinkApart(linked map[[2]rdf.Term]bool, a, b sparql.Binding) bool {
	if len(a) != len(b) {
		return false
	}
	for v, x := range a {
		y, ok := b[v]
		if !ok || x != y && !linked[[2]rdf.Term{x, y}] {
			return false
		}
	}
	return true
}

func mustCompile(t testing.TB, query string) *sparql.Prepared {
	t.Helper()
	q, err := sparql.Parse(query)
	if err != nil {
		t.Fatalf("%q: %v", query, err)
	}
	return sparql.Compile(q)
}

// checkReference evaluates a basic-graph-pattern query on f, under the
// planner and under DisablePlan at parallelism 1 and 4, and on f's
// reference store. Every federated answer must be a reference answer. With
// complete set, which only a conflict-free link set allows, every
// reference answer must also have a federated answer one link apart from
// it at each variable.
func checkReference(t testing.TB, f *Federation, query string, complete bool) {
	t.Helper()
	ctx, prep := context.Background(), mustCompile(t, query)
	slots, err := prep.Eval(ctx, sparql.StoreSolver(referenceStore(f).Now()), sparql.EvalOptions{})
	if err != nil {
		t.Fatalf("%q: reference: %v", query, err)
	}
	want := slots.Materialize().Rows
	reference := map[string]bool{}
	for _, b := range want {
		reference[renderBinding(b)] = true
	}
	linked := linkedTerms(f)
	defer f.SetParallelism(f.parallel)
	for _, workers := range []int{1, 4} {
		f.SetParallelism(workers)
		for _, opts := range []sparql.EvalOptions{{}, {DisablePlan: true}} {
			mode := fmt.Sprintf("%q (DisablePlan=%v, workers=%d)", query, opts.DisablePlan, workers)
			res, err := f.Eval(ctx, prep, opts)
			if err != nil {
				t.Fatalf("%s: %v", mode, err)
			}
			for _, a := range res.Answers {
				if !reference[renderBinding(a.Binding)] {
					t.Errorf("%s: answer %s is not a reference answer", mode, renderBinding(a.Binding))
				}
			}
			if !complete {
				continue
			}
		refs:
			for _, b := range want {
				for _, a := range res.Answers {
					if oneLinkApart(linked, a.Binding, b) {
						continue refs
					}
				}
				t.Errorf("%s: reference answer %s has no federated answer", mode, renderBinding(b))
			}
		}
	}
}

// checkLinksDecideAnswers holds every answer to the links it names. With
// any one link of an answer's Used withdrawn, the federation answers
// exactly the answers whose Used lacks that link, so the answer goes or
// names other links; with every link withdrawn, exactly the answers whose
// Used is empty, so those survive SetLinks(∅). Answers are compared as
// sets of (binding, Used) pairs. f's links are restored on return.
func checkLinksDecideAnswers(t testing.TB, f *Federation, query string) {
	t.Helper()
	ctx, prep := context.Background(), mustCompile(t, query)
	links := f.Links()
	defer f.SetLinks(links)
	eval := func() []Answer {
		res, err := f.Eval(ctx, prep, sparql.EvalOptions{})
		if err != nil {
			t.Fatalf("%q: %v", query, err)
		}
		return res.Answers
	}
	keys := func(answers []Answer, keep func(Answer) bool) string {
		var out []string
		for _, a := range answers {
			if keep(a) {
				out = append(out, renderBinding(a.Binding)+fmt.Sprint(a.Used))
			}
		}
		slices.Sort(out)
		return strings.Join(slices.Compact(out), "\n")
	}
	all := eval()
	var used []linkset.Link
	for _, a := range all {
		used = append(used, a.Used...)
	}
	for _, l := range linkset.Sort(used) {
		less := slices.DeleteFunc(links.Links(), func(m linkset.Link) bool { return m == l })
		f.SetLinks(linkset.FromSorted(less))
		got := keys(eval(), func(Answer) bool { return true })
		if want := keys(all, func(a Answer) bool { return !slices.Contains(a.Used, l) }); got != want {
			t.Errorf("%q without %v:\n%s\nwant the answers that did not use it:\n%s", query, l, got, want)
		}
	}
	f.SetLinks(linkset.New())
	got := keys(eval(), func(Answer) bool { return true })
	if want := keys(all, func(a Answer) bool { return len(a.Used) == 0 }); got != want {
		t.Errorf("%q without links:\n%s\nwant the answers that used none:\n%s", query, got, want)
	}
}

// smallFederation puts each triple in a store of its own and publishes
// links between the entities ex+l[0] and ex+l[1].
func smallFederation(triples []rdf.Triple, links ...[2]string) *Federation {
	dict := rdf.NewDict()
	stores := make([]*store.Store, len(triples))
	for i, tr := range triples {
		stores[i] = store.New("s"+itoa(i), dict)
		stores[i].Add(tr)
	}
	f := New(dict, stores...)
	set := make([]linkset.Link, len(links))
	for i, l := range links {
		set[i] = linkset.Link{Left: dict.Intern(iri(l[0])), Right: dict.Intern(iri(l[1]))}
	}
	f.SetLinks(linkset.FromLinks(set))
	return f
}

// bothEndsFederation needs one link at each end of one pattern: a's name
// is in one store, d's in another, and the only knows triple, in a third,
// is about their aliases b and c. Both bothEndsQueries bind ?x and ?y
// before ?x knows ?y when planning is off.
func bothEndsFederation() *Federation {
	return smallFederation([]rdf.Triple{
		{S: iri("a"), P: iri("name"), O: rdf.NewString("A")},
		{S: iri("b"), P: iri("knows"), O: iri("c")},
		{S: iri("d"), P: iri("name"), O: rdf.NewString("C")},
	}, [2]string{"a", "b"}, [2]string{"c", "d"})
}

var bothEndsQueries = []string{
	`SELECT ?x ?y WHERE { ?x <` + ex + `name> "A" . ?y <` + ex + `name> "C" . ?x <` + ex + `knows> ?y }`,
	`SELECT ?x ?y WHERE { ?y <` + ex + `name> "C" . ?x <` + ex + `name> "A" . ?x <` + ex + `knows> ?y }`,
	`SELECT * WHERE { <` + ex + `a> <` + ex + `knows> <` + ex + `d> }`,
}

// referenceWorld builds, from seed, a federation of 2–3 stores and a dozen
// basic-graph-pattern queries over it. Store k holds 3–7 triples about its
// four entities ex+"k.i", with one of three predicates and, as object, an
// entity of any store or one of three literals. Links join entities of
// different stores. Without chained no entity is in two links, a
// conflict-free set; with chained at least one is, so a chain a~b, b~c
// forms.
func referenceWorld(seed int64, chained bool) (*Federation, []string) {
	rng := rand.New(rand.NewSource(seed))
	dict := rdf.NewDict()
	stores := make([]*store.Store, 2+rng.Intn(2))
	var entities []rdf.Term
	var home []int // home[i] is the store entities[i] belongs to
	for k := range stores {
		for i := 0; i < 3; i++ {
			entities = append(entities, iri(fmt.Sprintf("%d.%d", k, i)))
			home = append(home, k)
		}
	}
	preds := []rdf.Term{iri("p"), iri("q"), iri("r")}
	object := func() rdf.Term {
		if rng.Intn(4) == 0 {
			return rdf.NewString(string(rune('u' + rng.Intn(3))))
		}
		return entities[rng.Intn(len(entities))]
	}
	for k := range stores {
		stores[k] = store.New("s"+itoa(k), dict)
		for n := 3 + rng.Intn(5); n > 0; n-- {
			stores[k].Add(rdf.Triple{S: entities[3*k+rng.Intn(3)], P: preds[rng.Intn(3)], O: object()})
		}
	}
	f := New(dict, stores...)

	var links []linkset.Link
	linked := map[linkset.Link]bool{}
	degree := make([]int, len(entities))
	link := func(a, b int) {
		if home[a] > home[b] {
			a, b = b, a
		}
		if l := (linkset.Link{Left: dict.Intern(entities[a]), Right: dict.Intern(entities[b])}); !linked[l] {
			linked[l] = true
			links = append(links, l)
			degree[a]++
			degree[b]++
		}
	}
	for n := 4 + rng.Intn(6); n > 0; n-- {
		a, b := rng.Intn(len(entities)), rng.Intn(len(entities))
		if home[a] != home[b] && (chained || degree[a] == 0 && degree[b] == 0) {
			link(a, b)
		}
	}
	if chained && slices.Max(degree) < 2 {
		// Link b, of another store, to a and to a second entity c of a's
		// store: the chain a~b, b~c.
		a := slices.IndexFunc(degree, func(d int) bool { return d > 0 })
		if a < 0 {
			a = 0
		}
		b := (3*(home[a]+1) + rng.Intn(3)) % len(entities)
		link(a, b)
		link(b, 3*home[a]+(a+1)%3)
	}
	set := linkset.FromLinks(links)
	f.SetLinks(set)

	// A pattern is drawn at random or, half the time, copied from a stored
	// triple with each end moved along one of its links, so that many
	// patterns need a link at one end or at both.
	aliases := map[rdf.Term][]rdf.Term{}
	for _, l := range set.Links() {
		a, b := dict.Term(l.Left), dict.Term(l.Right)
		aliases[a], aliases[b] = append(aliases[a], b), append(aliases[b], a)
	}
	var stored []rdf.TripleID
	for _, st := range stores {
		stored = append(stored, st.Match(rdf.NoTerm, rdf.NoTerm, rdf.NoTerm)...)
	}
	vars := []string{"?a", "?b", "?c"}
	objects := append(slices.Clone(entities), rdf.NewString("u"), rdf.NewString("v"), rdf.NewString("w"))
	end := func(x rdf.Term, avoid string) string {
		if v := vars[rng.Intn(len(vars))]; rng.Intn(3) == 0 && v != avoid {
			return v
		}
		if as := aliases[x]; len(as) > 0 && rng.Intn(4) > 0 {
			x = as[rng.Intn(len(as))]
		}
		return x.String()
	}
	queries := make([]string, 12)
	for i := range queries {
		var patterns []string
		for n := 1 + rng.Intn(3); n > 0; n-- {
			t := rdf.Triple{S: entities[rng.Intn(len(entities))], P: preds[rng.Intn(3)], O: objects[rng.Intn(len(objects))]}
			if rng.Intn(2) == 0 {
				tid := stored[rng.Intn(len(stored))]
				t = rdf.Triple{S: dict.Term(tid.S), P: dict.Term(tid.P), O: dict.Term(tid.O)}
			}
			// A variable twice in one pattern is left out: unbound, the
			// pattern reads only the triples whose two ends are one term.
			s := end(t.S, "")
			patterns = append(patterns, s+" "+t.P.String()+" "+end(t.O, s))
		}
		queries[i] = "SELECT * WHERE { " + strings.Join(patterns, " . ") + " }"
	}
	return f, queries
}

// TestFederationMatchesReference holds the federation to the one-hop
// reference on the motivating federation, on the federation that needs a
// link at both ends of one pattern, on the chain a~b, b~c, and on
// generated worlds with conflict-free and with chained link sets. The
// reference's completeness half applies to conflict-free link sets only:
// at a chain, the reference copies a triple onto both ends and the
// federation reads it from the one it asked about. On every federation
// each answer must also stand and fall with the links it names.
func TestFederationMatchesReference(t *testing.T) {
	f, _ := motivatingFederation(t)
	for _, query := range []string{
		`SELECT ?article WHERE { ?player <` + dbo + `award> "NBA MVP 2013" . ?article <` + nyo + `about> ?player }`,
		`SELECT ?player ?article WHERE { ?article <` + nyo + `about> ?player . ?player <` + dbo + `award> ?a }`,
		`SELECT ?article WHERE { ?article <` + nyo + `about> <` + dbp + `LeBron_James> }`,
		`SELECT ?award WHERE { <` + nyt + `article1> <` + nyo + `about> ?who . ?who <` + dbo + `award> ?award }`,
		`SELECT * WHERE { ?s ?p ?o }`,
	} {
		checkReference(t, f, query, true)
		checkLinksDecideAnswers(t, f, query)
	}

	f = bothEndsFederation()
	for _, query := range bothEndsQueries {
		checkReference(t, f, query, true)
		checkLinksDecideAnswers(t, f, query)
	}

	f = smallFederation([]rdf.Triple{
		{S: iri("a"), P: iri("name"), O: rdf.NewString("A")},
		{S: iri("b"), P: iri("knows"), O: iri("a")},
		{S: iri("c"), P: iri("name"), O: rdf.NewString("C")},
	}, [2]string{"a", "b"}, [2]string{"b", "c"})
	for _, query := range []string{
		`SELECT * WHERE { ?x <` + ex + `name> ?n . ?x <` + ex + `knows> ?y }`,
		`SELECT * WHERE { ?y <` + ex + `name> ?n . ?x <` + ex + `knows> ?y }`,
	} {
		checkReference(t, f, query, false)
		checkLinksDecideAnswers(t, f, query)
	}

	for seed := int64(0); seed < 40; seed++ {
		for _, chained := range []bool{false, true} {
			f, queries := referenceWorld(seed, chained)
			for _, query := range queries {
				checkReference(t, f, query, !chained)
				checkLinksDecideAnswers(t, f, query)
			}
		}
	}
}

// FuzzFederationMatchesReference is TestFederationMatchesReference's
// generated worlds with the fuzzer choosing the seed and whether the link
// set has a chain; on a chained set only the soundness half applies.
func FuzzFederationMatchesReference(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, seed%2 == 1)
	}
	f.Fuzz(func(t *testing.T, seed int64, chained bool) {
		fd, queries := referenceWorld(seed, chained)
		for _, query := range queries {
			checkReference(t, fd, query, !chained)
		}
	})
}
