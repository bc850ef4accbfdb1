package linkset

import (
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"alex/internal/rdf"
)

// The naive reference the run helpers are compared against: plain maps and
// a from-scratch sort with the comparison spelled out, sharing nothing
// with run.go.

func naiveLess(a, b Link) bool {
	if a.Left != b.Left {
		return a.Left < b.Left
	}
	return a.Right < b.Right
}

func naiveRun(m map[Link]bool) []Link {
	out := []Link{}
	for l, in := range m {
		if in {
			out = append(out, l)
		}
	}
	sort.Slice(out, func(i, j int) bool { return naiveLess(out[i], out[j]) })
	return out
}

// randomLinks draws n links (repeats likely) from a small universe, so
// sets overlap, share Left ends and hit both ends of the id range.
func randomLinks(rng *rand.Rand, n int) []Link {
	out := make([]Link, n)
	for i := range out {
		out[i] = lk(uint32(rng.Intn(12)), uint32(rng.Intn(12)))
	}
	return out
}

func asMap(links []Link) map[Link]bool {
	m := map[Link]bool{}
	for _, l := range links {
		m[l] = true
	}
	return m
}

func TestRunHelpersMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for round := 0; round < 500; round++ {
		a, b := randomLinks(rng, rng.Intn(40)), randomLinks(rng, rng.Intn(40))
		ma, mb := asMap(a), asMap(b)
		ra, rb := naiveRun(ma), naiveRun(mb)

		if got := Sort(slices.Clone(a)); !slices.Equal(got, ra) {
			t.Fatalf("Sort(%v) = %v, want %v", a, got, ra)
		}
		if !isRun(ra) || (len(a) > 1 && isRun(append(slices.Clone(ra), ra[0]))) {
			t.Fatalf("isRun wrong on %v", ra)
		}

		// Diff against set differences; Patch undoes Diff; diffCount counts it.
		added, removed := Diff(ra, rb)
		wantAdded, wantRemoved := map[Link]bool{}, map[Link]bool{}
		for l := range mb {
			wantAdded[l] = !ma[l]
		}
		for l := range ma {
			wantRemoved[l] = !mb[l]
		}
		if !slices.Equal(added, naiveRun(wantAdded)) || !slices.Equal(removed, naiveRun(wantRemoved)) {
			t.Fatalf("Diff(%v, %v) = +%v -%v", ra, rb, added, removed)
		}
		if got := diffCount(ra, rb); got != len(added)+len(removed) {
			t.Fatalf("diffCount(%v, %v) = %d, want %d", ra, rb, got, len(added)+len(removed))
		}
		keep := slices.Clone(ra)
		if got := Patch(nil, ra, added, removed); !slices.Equal(got, rb) {
			t.Fatalf("Patch(%v, +%v, -%v) = %v, want %v", ra, added, removed, got, rb)
		}
		if !slices.Equal(ra, keep) {
			t.Fatalf("Patch wrote to its base")
		}

		// Merge of the two plus an empty and a repeated run is the union.
		union := map[Link]bool{}
		for l := range ma {
			union[l] = true
		}
		for l := range mb {
			union[l] = true
		}
		if got := Merge(ra, nil, rb, ra); !slices.Equal(got, naiveRun(union)) {
			t.Fatalf("Merge(%v, %v) = %v", ra, rb, got)
		}

		// WithLeft, for every id in and just outside the universe.
		for left := rdf.TermID(0); left < 14; left++ {
			want := []Link{}
			for _, l := range ra {
				if l.Left == left {
					want = append(want, l)
				}
			}
			if got := WithLeft(ra, left); !slices.Equal(got, want) {
				t.Fatalf("WithLeft(%v, %d) = %v, want %v", ra, left, got, want)
			}
		}
	}
}

func TestReversedRunIsRightOrder(t *testing.T) {
	links := []Link{lk(1, 9), lk(2, 3), lk(2, 1), lk(5, 1)}
	rev := make([]Link, len(links))
	for i, l := range links {
		rev[i] = l.Reversed()
	}
	want := []Link{lk(1, 2), lk(1, 5), lk(3, 2), lk(9, 1)}
	if got := Sort(rev); !slices.Equal(got, want) {
		t.Errorf("reversed run = %v, want %v", got, want)
	}
}

// TestSortedViewFollowsTheSet drives a Set and a plain map through the
// same random mutations; at every step Sorted must equal the map's keys in
// order, a run handed out earlier must still read as it did then, and
// DiffCount / Evaluate against a second set must agree with counting by
// hand.
func TestSortedViewFollowsTheSet(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	other := randomLinks(rng, 30)
	otherSet, otherMap := FromLinks(other), asMap(other)
	s, m := New(), map[Link]bool{}
	for step := 0; step < 2000; step++ {
		held := s.Sorted()
		heldCopy := slices.Clone(held)
		l := randomLinks(rng, 1)[0]
		switch rng.Intn(4) {
		case 0, 1:
			if s.Add(l) == m[l] {
				t.Fatalf("step %d: Add(%v) disagrees with the model", step, l)
			}
			m[l] = true
		case 2:
			if s.Remove(l) != m[l] {
				t.Fatalf("step %d: Remove(%v) disagrees with the model", step, l)
			}
			delete(m, l)
		case 3:
			s = s.Clone()
		}
		if !slices.Equal(held, heldCopy) {
			t.Fatalf("step %d: a run handed out before the change was written to", step)
		}
		want := naiveRun(m)
		if got := s.Sorted(); !slices.Equal(got, want) {
			t.Fatalf("step %d: Sorted = %v, want %v", step, got, want)
		}
		if got := s.Links(); !slices.Equal(got, want) {
			t.Fatalf("step %d: Links = %v, want %v", step, got, want)
		}
		diff, both := 0, 0
		for l := range m {
			if otherMap[l] {
				both++
			} else {
				diff++
			}
		}
		diff += len(otherMap) - both
		if got := s.DiffCount(otherSet); got != diff {
			t.Fatalf("step %d: DiffCount = %d, want %d", step, got, diff)
		}
		if q := Evaluate(s, otherSet); q.Correct != both || q.Candidates != len(m) || q.Truth != len(otherMap) {
			t.Fatalf("step %d: Evaluate = %+v, want %d correct of %d / %d", step, q, both, len(m), len(otherMap))
		}
	}
}

func TestLinksIsACopy(t *testing.T) {
	s := FromLinks([]Link{lk(2, 2), lk(1, 1)})
	ls := s.Links()
	ls[0] = lk(9, 9)
	if got := s.Sorted(); !slices.Equal(got, []Link{lk(1, 1), lk(2, 2)}) {
		t.Errorf("writing to Links() changed the set's view: %v", got)
	}
}

func TestFromSorted(t *testing.T) {
	run := []Link{lk(1, 1), lk(1, 2), lk(3, 0)}
	s := FromSorted(run)
	if got := s.Sorted(); &got[0] != &run[0] {
		t.Error("FromSorted did not keep the run as the sorted view")
	}
	if s.Len() != 3 || !s.Contains(lk(1, 2)) || s.Contains(lk(2, 1)) {
		t.Errorf("FromSorted set wrong: len %d", s.Len())
	}
	s.Add(lk(0, 5))
	if got := s.Sorted(); !slices.Equal(got, []Link{lk(0, 5), lk(1, 1), lk(1, 2), lk(3, 0)}) {
		t.Errorf("Sorted after Add = %v", got)
	}
	if !slices.Equal(run, []Link{lk(1, 1), lk(1, 2), lk(3, 0)}) {
		t.Errorf("Add wrote to the run it was given: %v", run)
	}
	// Not a run: out of order, and with a repeat.
	for _, bad := range [][]Link{{lk(2, 2), lk(1, 1)}, {lk(1, 1), lk(1, 1), lk(2, 2)}} {
		s := FromSorted(bad)
		if got := s.Sorted(); !slices.Equal(got, []Link{lk(1, 1), lk(2, 2)}) {
			t.Errorf("FromSorted(%v).Sorted() = %v", bad, got)
		}
	}
	if s := FromSorted(nil); s.Len() != 0 || len(s.Sorted()) != 0 {
		t.Error("FromSorted(nil) not empty")
	}
}

// TestCompareWhileWritersWait: DiffCount and Evaluate used to hold both
// sets' read locks at once, so comparing a set with itself, or two sets in
// opposite orders from two goroutines, deadlocked as soon as a writer
// queued between the two acquisitions. Now each set is read under its own
// lock in turn, and every comparison finishes under a hammering writer.
func TestCompareWhileWritersWait(t *testing.T) {
	a, b := New(), New()
	for i := uint32(0); i < 64; i++ {
		a.Add(lk(i, i))
		b.Add(lk(i, i+1))
	}
	stop := make(chan struct{})
	var writers sync.WaitGroup
	for _, s := range []*Set{a, b} {
		writers.Add(1)
		go func(s *Set) {
			defer writers.Done()
			for i := uint32(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				s.Add(lk(1000+i%8, 1))
				s.Remove(lk(1000+i%8, 1))
				// Yield, or a spinning writer keeps re-taking the mutex and
				// each reader waits out the 1ms starvation threshold per call.
				runtime.Gosched()
			}
		}(s)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		var readers sync.WaitGroup
		for _, pair := range [][2]*Set{{a, a}, {a, b}, {b, a}, {b, b}} {
			readers.Add(1)
			go func(x, y *Set) {
				defer readers.Done()
				for i := 0; i < 4000; i++ {
					x.DiffCount(y)
					Evaluate(x, y)
				}
			}(pair[0], pair[1])
		}
		readers.Wait()
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		// The writers are stuck behind the readers; do not wait for them.
		t.Fatal("comparisons did not finish while writers hammered the sets: deadlock")
	}
	close(stop)
	writers.Wait()
}
