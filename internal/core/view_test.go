package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"alex/internal/feature"
	"alex/internal/feedback"
	"alex/internal/linkset"
	"alex/internal/rdf"
	"alex/internal/store"
)

// The naive reference for the partitions' sorted views: the candidate map
// itself, its keys sorted from scratch with the order spelled out, and the
// episode-boundary snapshot comparison fold replaced.

func sortedKeys(m map[linkset.Link]struct{}) []linkset.Link {
	out := make([]linkset.Link, 0, len(m))
	for l := range m {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Left != out[j].Left {
			return out[i].Left < out[j].Left
		}
		return out[i].Right < out[j].Right
	})
	return out
}

func symmetricDifference(a, b map[linkset.Link]struct{}) int {
	n := 0
	for l := range a {
		if _, ok := b[l]; !ok {
			n++
		}
	}
	for l := range b {
		if _, ok := a[l]; !ok {
			n++
		}
	}
	return n
}

// checkView fails unless p's view is exactly its candidate map in order
// and nothing is left in the log.
func checkView(t *testing.T, when string, p *partition) {
	t.Helper()
	if want := sortedKeys(p.candidateSet()); !slices.Equal(p.view, want) {
		t.Fatalf("%s: partition %d view has %d links, candidates %d:\nview %v\nwant %v",
			when, p.id, len(p.view), len(want), p.view, want)
	}
	if len(p.touched) != 0 || p.overflowed {
		t.Fatalf("%s: partition %d left %d logged changes (overflowed=%v) behind", when, p.id, len(p.touched), p.overflowed)
	}
}

// TestFoldMatchesNaive drives one bare partition, over an empty feature
// space that interns every link, through random adds and removes over a
// universe of 6,400 links, folding at random moments. After every fold the
// view must be the candidate map in order and the returned count the
// symmetric difference against the map as it was at the fold before — on
// all of fold's routes: the merged log, short or past linkset.RadixMin
// entries, and the cut-short one.
func TestFoldMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	dict := rdf.NewDict()
	empty := feature.Build(store.New("a", dict), nil, store.New("b", dict), feature.DefaultOptions())
	p := newPartition(0, empty, Defaults().withDefaults(), 1)
	atLastFold := p.candidateSet()
	logged, radix, overflowed := 0, 0, 0
	for step := 0; step < 2000; step++ {
		// Mostly a few changes between folds (the log holds), sometimes
		// about a thousand (the log holds, and sorts by radix), sometimes
		// more than the set has links (it does not). About half the
		// changes flip a link.
		gap := rng.Intn(6)
		switch rng.Intn(20) {
		case 0, 1:
			gap = 2*linkset.RadixMin + rng.Intn(2*linkset.RadixMin)
		case 2:
			gap = 12000 + rng.Intn(2000)
		}
		for ; gap > 0; gap-- {
			l := linkset.Link{Left: rdf.TermID(rng.Intn(80)), Right: rdf.TermID(rng.Intn(80))}
			if rng.Intn(5) < 3 {
				p.addCandidate(p.linkID(l))
			} else {
				p.removeCandidate(p.linkID(l))
			}
		}
		switch {
		case len(p.touched) == 0:
		case p.overflowed:
			overflowed++
		case len(p.touched) >= linkset.RadixMin:
			radix++
		default:
			logged++
		}
		got := p.fold()
		checkView(t, fmt.Sprintf("step %d", step), p)
		if want := symmetricDifference(atLastFold, p.candidateSet()); got != want {
			t.Fatalf("step %d: fold reported %d changed links, snapshots differ in %d", step, got, want)
		}
		atLastFold = p.candidateSet()
	}
	if logged < 100 || radix < 20 || overflowed < 10 {
		t.Errorf("folds: %d from a short complete log, %d from one past the radix crossover, %d from a cut-short one; the test needs plenty of each",
			logged, radix, overflowed)
	}
}

// TestViewsFollowEveryEntryPoint runs a random sequence of every engine
// entry point that can change candidates — sampled and explicit episodes
// (with an erring oracle, so rejections and rollbacks happen), stream
// batches, SetInitialLinks, save/restore into a fresh engine, live upserts,
// and direct partition-level add/remove/rollback — and after each checks
// every partition's view against its candidate map, and each episode's
// delta-derived Changed against the snapshot comparison it replaced.
func TestViewsFollowEveryEntryPoint(t *testing.T) {
	pair := testPair(71)
	cfg := smallConfig(71)
	cfg.Partitions = 3
	cfg.MaxEpisodes = 1 << 20
	cfg.Workers = 2
	e := New(pair.DS1, pair.DS2, cfg)
	rng := rand.New(rand.NewSource(71))
	oracle := feedback.NewOracle(pair.Truth, 0.25, rand.New(rand.NewSource(72)))
	judge := SerialJudge(oracle.JudgeFunc())
	truth := pair.Truth.Links()
	var spaceLinks []linkset.Link
	for _, p := range e.partitions {
		spaceLinks = append(spaceLinks, p.space.Links()...)
	}

	// anyLink draws a link the engine may or may not hold: a current
	// candidate, a pair of some partition's space, or a truth link.
	anyLink := func() linkset.Link {
		p := e.partitions[rng.Intn(len(e.partitions))]
		switch k := rng.Intn(3); {
		case k == 0 && len(p.view) > 0:
			return p.view[rng.Intn(len(p.view))]
		case k == 1:
			return spaceLinks[rng.Intn(len(spaceLinks))]
		}
		return truth[rng.Intn(len(truth))]
	}
	items := func(n int) []Feedback {
		out := make([]Feedback, n)
		for i := range out {
			out[i] = Feedback{Link: anyLink(), Approved: rng.Intn(5) < 3}
		}
		return out
	}
	snapshots := func() []map[linkset.Link]struct{} {
		out := make([]map[linkset.Link]struct{}, len(e.partitions))
		for i, p := range e.partitions {
			out[i] = p.candidateSet()
		}
		return out
	}
	checkAll := func(when string) {
		t.Helper()
		n := 0
		for _, p := range e.partitions {
			checkView(t, when, p)
			n += p.candidates
			if got := e.PartitionCandidates(p.id); !slices.Equal(got, p.view) {
				t.Fatalf("%s: PartitionCandidates(%d) differs from the view", when, p.id)
			}
		}
		all := make(map[linkset.Link]struct{}, n)
		for _, p := range e.partitions {
			for l := range p.candidateSet() {
				all[l] = struct{}{}
			}
		}
		cands := e.Candidates()
		if !slices.Equal(cands.Sorted(), sortedKeys(all)) || cands.Len() != n || e.CandidateCount() != n {
			t.Fatalf("%s: Candidates() has %d links, CandidateCount %d, the partitions hold %d", when, cands.Len(), e.CandidateCount(), n)
		}
	}
	// checkEpisode compares one episode's Changed, per partition and in
	// total, with the before/after snapshots.
	checkEpisode := func(when string, before []map[linkset.Link]struct{}, st EpisodeStats) {
		t.Helper()
		total := 0
		for i, p := range e.partitions {
			want := symmetricDifference(before[i], p.candidateSet())
			if p.episodeChanged != want {
				t.Fatalf("%s: partition %d episodeChanged = %d, snapshots differ in %d", when, i, p.episodeChanged, want)
			}
			total += want
		}
		if st.Changed != total {
			t.Fatalf("%s: stats.Changed = %d, snapshots differ in %d", when, st.Changed, total)
		}
	}

	checkAll("new engine")
	e.SetInitialLinks(initialLinks(pair))
	checkAll("initial links")
	stream := e.FeedbackStream(StreamConfig{BatchSize: 32})
	rollbacks, logged, overflowed, newcomers := 0, 0, 0, 0
	for step := 0; step < 120; step++ {
		// Strict convergence freezes a partition for good; thaw it so the
		// sequence keeps changing candidates to the end.
		for _, p := range e.partitions {
			p.converged = false
		}
		op := rng.Intn(7)
		when := fmt.Sprintf("step %d op %d", step, op)
		before := snapshots()
		switch op {
		case 0:
			st := e.RunEpisode(judge)
			checkEpisode(when, before, st)
			rollbacks = st.Rollbacks
		case 1:
			checkEpisode(when, before, e.ApplyEpisode(items(1+rng.Intn(40))))
		case 2:
			// Fewer items than a batch, then Flush: exactly one episode.
			if _, applied := stream.Submit(items(1 + rng.Intn(31))...); len(applied) != 0 {
				t.Fatalf("%s: Submit below the batch size applied %d episodes", when, len(applied))
			}
			applied := stream.Flush()
			if len(applied) != 1 {
				t.Fatalf("%s: Flush applied %d episodes, want 1", when, len(applied))
			}
			checkEpisode(when, before, applied[0])
		case 3:
			links := []linkset.Link{{Left: rdf.TermID(1 << 30), Right: 1}} // unroutable
			for i := rng.Intn(30); i > 0; i-- {
				links = append(links, anyLink())
			}
			e.SetInitialLinks(links)
		case 4:
			var buf bytes.Buffer
			if err := e.SaveState(&buf); err != nil {
				t.Fatal(err)
			}
			want := e.Candidates().Sorted()
			restored := New(pair.DS1, pair.DS2, cfg)
			if err := restored.LoadState(&buf); err != nil {
				t.Fatal(err)
			}
			e, stream = restored, restored.FeedbackStream(StreamConfig{BatchSize: 32})
			if got := e.Candidates().Sorted(); !slices.Equal(got, want) {
				t.Fatalf("%s: restored engine holds %d candidates, saved one %d", when, len(got), len(want))
			}
		case 5:
			subj := rdf.NewIRI(fmt.Sprintf("http://view.test/e%d", newcomers))
			newcomers++
			pair.DS1.Add(rdf.Triple{S: subj, P: rdf.NewIRI(rdf.RDFSLabel), O: rdf.NewString(fmt.Sprintf("newcomer %d", newcomers))})
			e.SyncStores()
		case 6:
			// The primitives themselves, then the fold every entry point
			// owes: many changes on some rounds (the log is cut short), a
			// few on others.
			e.mu.Lock()
			n := 1 + rng.Intn(4)
			if rng.Intn(2) == 0 {
				n = 4*e.collectStats().Candidates + 8
			}
			for i := 0; i < n; i++ {
				l := anyLink()
				p := e.partitions[e.subjectPartition[l.Left]]
				if rng.Intn(3) > 0 {
					p.addCandidate(p.linkID(l))
				} else {
					p.removeCandidate(p.linkID(l))
				}
			}
			for _, p := range e.partitions {
				for sa := range p.sas {
					if len(p.sas[sa].gen) > 0 {
						p.rollback(uint32(sa))
						break
					}
				}
				if len(p.touched) > 0 && p.overflowed {
					overflowed++
				} else if len(p.touched) > 0 {
					logged++
				}
			}
			e.foldLocked()
			e.mu.Unlock()
		}
		checkAll(when)
	}
	if rollbacks == 0 || logged == 0 || overflowed == 0 || newcomers == 0 {
		t.Errorf("coverage: %d rollbacks, %d logged folds, %d overflowed folds, %d newcomers; want all non-zero",
			rollbacks, logged, overflowed, newcomers)
	}
}
