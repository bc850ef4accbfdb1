package fed

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"alex/internal/linkset"
	"alex/internal/rdf"
	"alex/internal/store"
)

// naiveEdge and naiveEquiv are the alias index SetLinks once built with
// maps on every call, kept here as the reference its runs are compared
// with: sort every link, then append an edge under each end.
type naiveEdge struct {
	to   rdf.TermID
	link linkset.Link
}

func naiveEquiv(links []linkset.Link) map[rdf.TermID][]naiveEdge {
	links = slices.Clone(links)
	sort.Slice(links, func(i, j int) bool {
		if links[i].Left != links[j].Left {
			return links[i].Left < links[j].Left
		}
		return links[i].Right < links[j].Right
	})
	equiv := map[rdf.TermID][]naiveEdge{}
	for _, l := range links {
		equiv[l.Left] = append(equiv[l.Left], naiveEdge{to: l.Right, link: l})
		equiv[l.Right] = append(equiv[l.Right], naiveEdge{to: l.Left, link: l})
	}
	return equiv
}

// aliasList drains a snapshot's alias iterator for x.
func aliasList(s *linkSnapshot, x rdf.TermID) []naiveEdge {
	var out []naiveEdge
	for a := s.aliasesOf(x); a.more(); {
		to, link := a.next()
		out = append(out, naiveEdge{to: to, link: link})
	}
	return out
}

// TestSetLinksMatchesFromScratchBuild publishes a random sequence of link
// sets — built every way callers build them, over ids that appear on both
// sides so chains a~b, b~c and self links occur, one in four with more
// links than linkset.RadixMin so that the runs are sorted by radix — and
// after every SetLinks compares each entity's alias list, order included,
// with the from-scratch build. The sequence repeats a set, publishes the
// empty set and sets that differ from the last in a few links; every
// snapshot ever published must still read as it did.
func TestSetLinksMatchesFromScratchBuild(t *testing.T) {
	const universe = 64
	rng := rand.New(rand.NewSource(15))
	f := New(rdf.NewDict())
	randomLinks := func() []linkset.Link {
		n := rng.Intn(40)
		if rng.Intn(4) == 0 {
			n = 2*linkset.RadixMin + rng.Intn(linkset.RadixMin)
		}
		out := make([]linkset.Link, n)
		for i := range out {
			out[i] = linkset.Link{Left: rdf.TermID(1 + rng.Intn(universe)), Right: rdf.TermID(1 + rng.Intn(universe))}
		}
		return out
	}
	// toggle returns links with each link of change added if absent and
	// removed if present, in turn.
	toggle := func(links, change []linkset.Link) []linkset.Link {
		in := map[linkset.Link]bool{}
		for _, l := range links {
			in[l] = true
		}
		for _, l := range change {
			in[l] = !in[l]
		}
		var out []linkset.Link
		for l, ok := range in {
			if ok {
				out = append(out, l)
			}
		}
		return out
	}
	type published struct {
		snap            *linkSnapshot
		byLeft, byRight []linkset.Link
	}
	var history []published
	radix := 0 // publications whose by-right run was sorted by radix
	check := func(when string, want []linkset.Link) {
		t.Helper()
		snap := f.links.Load()
		equiv := naiveEquiv(want)
		for x := rdf.TermID(0); x <= universe+1; x++ {
			if got := aliasList(snap, x); !slices.Equal(got, equiv[x]) {
				t.Fatalf("%s: aliases of %d = %v, from-scratch build has %v", when, x, got, equiv[x])
			}
		}
		for i, p := range history {
			if !slices.Equal(p.snap.byLeft, p.byLeft) || !slices.Equal(p.snap.byRight, p.byRight) {
				t.Fatalf("%s: snapshot %d was written to after it was published", when, i)
			}
		}
		history = append(history, published{snap, slices.Clone(snap.byLeft), slices.Clone(snap.byRight)})
		if len(snap.byRight) >= linkset.RadixMin {
			radix++
		}
	}

	check("no links yet", nil)
	set := linkset.New()
	for step := 0; step < 300; step++ {
		when := fmt.Sprintf("step %d", step)
		switch rng.Intn(6) {
		case 0: // the same set again
		case 1:
			set = linkset.New()
		case 2:
			set = linkset.FromLinks(randomLinks())
		case 3:
			set = linkset.FromSorted(linkset.Sort(randomLinks()))
		case 4: // a small change to what is published
			change := randomLinks()
			set = linkset.FromLinks(toggle(set.Sorted(), change[:min(len(change), rng.Intn(4))]))
		case 5: // an equal set that is a different object
			set = linkset.FromSorted(set.Links())
		}
		f.SetLinks(set)
		if f.Links() != set {
			t.Fatalf("%s: Links() is not the set that was published", when)
		}
		check(when, set.Links())
	}
	if radix < 20 {
		t.Errorf("only %d publications past the radix crossover", radix)
	}
}

// TestAliasOrderAcrossAChain pins the rewrite order for an entity on both
// sides of its links: ascending (Left, Right) of the justifying link,
// whichever end the entity is.
func TestAliasOrderAcrossAChain(t *testing.T) {
	lk := func(l, r rdf.TermID) linkset.Link { return linkset.Link{Left: l, Right: r} }
	f := New(rdf.NewDict())
	f.SetLinks(linkset.FromLinks([]linkset.Link{lk(5, 9), lk(2, 5), lk(5, 3), lk(7, 5), lk(5, 5), lk(1, 2)}))
	want := []naiveEdge{{2, lk(2, 5)}, {3, lk(5, 3)}, {5, lk(5, 5)}, {5, lk(5, 5)}, {9, lk(5, 9)}, {7, lk(7, 5)}}
	if got := aliasList(f.links.Load(), 5); !slices.Equal(got, want) {
		t.Errorf("aliases of 5 = %v, want %v", got, want)
	}
}

// TestQueriesSeeOneSnapshotAcrossSwaps runs bound joins while SetLinks
// swaps between link sets a hundred times or more. Set k links player i to
// counterpart (i+k) mod n, so every answer of one query must show the same
// shift, and there must be one answer per player: a query that read the
// two runs of different publications, or a run being written, shows a mix
// or a hole. Run under -race.
func TestQueriesSeeOneSnapshotAcrossSwaps(t *testing.T) {
	const n, shifts, swaps = 24, 5, 100
	dict := rdf.NewDict()
	left, right := store.New("left", dict), store.New("right", dict)
	award, about := rdf.NewIRI(dbo+"award"), rdf.NewIRI(nyo+"about")
	var players, counterparts [n]rdf.TermID
	for i := 0; i < n; i++ {
		p, c := rdf.NewIRI(dbp+"player"+itoa(i)), rdf.NewIRI(nyt+"person"+itoa(i))
		left.Add(rdf.Triple{S: p, P: award, O: rdf.NewString("MVP")})
		right.Add(rdf.Triple{S: rdf.NewIRI(nyt + "article" + itoa(i)), P: about, O: c})
		players[i], counterparts[i] = dict.Intern(p), dict.Intern(c)
	}
	shiftOf := map[linkset.Link]int{}
	var sets [shifts]*linkset.Set
	for k := range sets {
		links := make([]linkset.Link, n)
		for i := range links {
			links[i] = linkset.Link{Left: players[i], Right: counterparts[(i+k)%n]}
			shiftOf[links[i]] = k
		}
		sets[k] = linkset.FromLinks(links)
	}
	f := New(dict, left, right)
	f.SetLinks(sets[0])

	stop := make(chan struct{})
	var readers sync.WaitGroup
	var answered [3]atomic.Int64 // queries each reader has checked
	for g := range answered {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for ; ; answered[g].Add(1) {
				select {
				case <-stop:
					return
				default:
				}
				res, err := f.ExecuteContext(context.Background(),
					`SELECT ?p ?a WHERE { ?p <`+dbo+`award> "MVP" . ?a <`+nyo+`about> ?p }`)
				if err != nil {
					t.Error(err)
					return
				}
				if len(res.Answers) != n {
					t.Errorf("%d answers, want %d", len(res.Answers), n)
					return
				}
				for _, a := range res.Answers {
					if len(a.Used) != 1 || shiftOf[a.Used[0]] != shiftOf[res.Answers[0].Used[0]] {
						t.Errorf("answer used %v, the first answer %v: a query saw two link sets", a.Used, res.Answers[0].Used)
						return
					}
				}
			}
		}()
	}
	// Swap at least a hundred times, and go on until every reader has had
	// twenty queries answered under the swapping (or has failed and left).
	busy := func() bool {
		for g := range answered {
			if answered[g].Load() < 20 && !t.Failed() {
				return true
			}
		}
		return false
	}
	for i := 1; i <= swaps || busy(); i++ {
		f.SetLinks(sets[i%shifts])
		runtime.Gosched()
	}
	close(stop)
	readers.Wait()
}
