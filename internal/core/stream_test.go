package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"alex/internal/feedback"
	"alex/internal/linkset"
	"alex/internal/obs"
	"alex/internal/rdf"
	"alex/internal/store"
)

// truthFeedback builds explicit feedback items for the first n current
// candidates, judged against ground truth.
func truthFeedback(e *Engine, truth *linkset.Set, n int) []Feedback {
	var out []Feedback
	for _, l := range e.Candidates().Links() {
		if len(out) >= n {
			break
		}
		out = append(out, Feedback{Link: l, Approved: truth.Contains(l)})
	}
	return out
}

func TestStreamBatchingAndFlush(t *testing.T) {
	p := testPair(31)
	e := New(p.DS1, p.DS2, smallConfig(31))
	e.SetInitialLinks(initialLinks(p))
	items := truthFeedback(e, p.Truth, 25)
	if len(items) < 12 {
		t.Fatalf("only %d candidates", len(items))
	}

	n := len(items)
	s := e.FeedbackStream(StreamConfig{Capacity: 100, BatchSize: 5})
	acc, applied := s.Submit(items[:3]...)
	if acc != 3 || len(applied) != 0 {
		t.Fatalf("Submit(3) = %d accepted, %d episodes; want 3, 0", acc, len(applied))
	}
	if s.Pending() != 3 {
		t.Fatalf("Pending = %d, want 3", s.Pending())
	}
	acc, applied = s.Submit(items[3:]...)
	wantAuto := n / 5
	if acc != n-3 || len(applied) != wantAuto {
		t.Fatalf("Submit(%d) = %d accepted, %d episodes; want %d, %d", n-3, acc, len(applied), n-3, wantAuto)
	}
	if got := s.Pending(); got != n%5 {
		t.Fatalf("Pending after auto-batches = %d, want %d", got, n%5)
	}
	final := s.Flush()
	wantFinal := 0
	if n%5 != 0 {
		wantFinal = 1
	}
	if len(final) != wantFinal {
		t.Fatalf("Flush applied %d episodes, want %d", len(final), wantFinal)
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending after Flush = %d, want 0", s.Pending())
	}
	st := s.Stats()
	if st.Submitted != n || st.Shed != 0 || st.Batches != wantAuto+wantFinal || st.Applied != n {
		t.Fatalf("Stats = %+v, want %d submitted / 0 shed / %d batches / %d applied", st, n, wantAuto+wantFinal, n)
	}
	if e.Episode() != wantAuto+wantFinal {
		t.Fatalf("engine ran %d episodes, want %d", e.Episode(), wantAuto+wantFinal)
	}
}

func TestStreamShedsAtCapacity(t *testing.T) {
	p := testPair(32)
	e := New(p.DS1, p.DS2, smallConfig(32))
	e.SetInitialLinks(initialLinks(p))
	reg := obs.NewRegistry()
	e.SetObserver(reg)
	items := truthFeedback(e, p.Truth, 12)

	// BatchSize above capacity: nothing auto-applies, overflow sheds.
	s := e.FeedbackStream(StreamConfig{Capacity: 8, BatchSize: 64})
	acc, applied := s.Submit(items...)
	if acc != 8 || len(applied) != 0 {
		t.Fatalf("Submit = %d accepted, %d episodes; want 8, 0", acc, len(applied))
	}
	st := s.Stats()
	if st.Shed != 4 {
		t.Fatalf("Shed = %d, want 4", st.Shed)
	}
	if got := reg.Counter(obs.CoreStreamShed).Value(); got != 4 {
		t.Fatalf("%s = %d, want 4", obs.CoreStreamShed, got)
	}
	if got := reg.Counter(obs.CoreStreamSubmitted).Value(); got != 8 {
		t.Fatalf("%s = %d, want 8", obs.CoreStreamSubmitted, got)
	}
}

func TestDroppedConvergedSurfaced(t *testing.T) {
	p := testPair(33)
	cfg := smallConfig(33)
	e := New(p.DS1, p.DS2, cfg)
	e.SetInitialLinks(initialLinks(p))
	reg := obs.NewRegistry()
	e.SetObserver(reg)
	oracle := feedback.NewOracle(p.Truth, 0, rand.New(rand.NewSource(33)))
	e.Run(SerialJudge(oracle.JudgeFunc()), nil)
	if !e.Converged() {
		t.Skip("engine did not converge within MaxEpisodes")
	}
	items := truthFeedback(e, p.Truth, 5)
	if len(items) == 0 {
		t.Fatal("no candidates to feed back on")
	}
	st := e.ApplyEpisode(items)
	if st.DroppedConverged != len(items) {
		t.Errorf("DroppedConverged = %d, want %d", st.DroppedConverged, len(items))
	}
	if got := reg.Counter(obs.CoreFeedbackDroppedConverged).Value(); got != int64(len(items)) {
		t.Errorf("%s = %d, want %d", obs.CoreFeedbackDroppedConverged, got, len(items))
	}
}

// TestStreamWorkerCountDeterminism drives the identical submission
// sequence through engines at worker counts 1 and 4: candidate sets and
// episode accounting must match exactly.
func TestStreamWorkerCountDeterminism(t *testing.T) {
	run := func(workers int) (*linkset.Set, []EpisodeStats, StreamStats) {
		p := testPair(34)
		cfg := smallConfig(34)
		cfg.Workers = workers
		e := New(p.DS1, p.DS2, cfg)
		e.SetInitialLinks(initialLinks(p))
		items := truthFeedback(e, p.Truth, 40)
		s := e.FeedbackStream(StreamConfig{Capacity: 64, BatchSize: 16})
		var eps []EpisodeStats
		for i := 0; i < len(items); i += 5 {
			end := min(i+5, len(items))
			_, applied := s.Submit(items[i:end]...)
			eps = append(eps, applied...)
		}
		eps = append(eps, s.Flush()...)
		return e.Candidates(), eps, s.Stats()
	}
	c1, e1, s1 := run(1)
	c4, e4, s4 := run(4)
	if s1 != s4 {
		t.Fatalf("stream stats differ: %+v vs %+v", s1, s4)
	}
	if len(e1) != len(e4) {
		t.Fatalf("episode counts differ: %d vs %d", len(e1), len(e4))
	}
	for i := range e1 {
		if e1[i] != e4[i] {
			t.Errorf("episode %d stats differ:\n  w1: %+v\n  w4: %+v", i, e1[i], e4[i])
		}
	}
	if got, want := fmt.Sprint(c1.Links()), fmt.Sprint(c4.Links()); got != want {
		t.Error("candidate sets differ between worker counts")
	}
}

// TestStreamConcurrentRace hammers concurrent Submit against episode
// reads — meaningful under `go test -race` (the race target covers
// internal/core).
func TestStreamConcurrentRace(t *testing.T) {
	p := testPair(35)
	cfg := smallConfig(35)
	cfg.Workers = 4
	e := New(p.DS1, p.DS2, cfg)
	e.SetInitialLinks(initialLinks(p))
	reg := obs.NewRegistry()
	e.SetObserver(reg)
	items := truthFeedback(e, p.Truth, 60)
	s := e.FeedbackStream(StreamConfig{Capacity: 256, BatchSize: 8})

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(items); i += 4 {
				s.Submit(items[i])
			}
		}()
	}
	newSubj := rdf.NewIRI("http://race.test/new")
	p.DS1.Add(rdf.Triple{S: newSubj, P: rdf.NewIRI("http://race.test/p/name"), O: rdf.NewString("race test entity")})
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				e.Candidates()
				e.Converged()
				for pi := 0; pi < e.Partitions(); pi++ {
					e.PartitionConverged(pi)
					e.SpaceStats(pi)
				}
				e.SyncStores()
			}
		}()
	}
	wg.Wait()
	s.Flush()
	if id, ok := p.Dict.Lookup(newSubj); ok {
		if _, routed := e.PartitionOf(id); !routed {
			t.Error("synced subject was not routed to a partition")
		}
	} else {
		t.Error("new subject not interned")
	}
}

// TestStreamMatchesSyncThenEpisode is the oracle for the stream's batch
// apply. One script of store growth on both sides and judgement
// submissions, flushed and not, runs against two engines over the same
// stores: one through a FeedbackStream, the other through the
// reference sequence SyncStores then ApplyEpisode, batch by batch, as the
// stream cut them. After every call that applied batches the two must
// agree on each batch's stats, on the SaveState bytes and on the
// candidate run, at one worker and at four.
func TestStreamMatchesSyncThenEpisode(t *testing.T) {
	var saved [2][]byte
	for wi, workers := range []int{1, 4} {
		p := testPair(36)
		cfg := smallConfig(36)
		cfg.Partitions = 3
		cfg.Workers = workers
		cfg.MaxEpisodes = 1 << 20
		init := initialLinks(p)
		streamed, ref := New(p.DS1, p.DS2, cfg), New(p.DS1, p.DS2, cfg)
		streamed.SetInitialLinks(init)
		ref.SetInitialLinks(init)
		const batch = 6
		s := streamed.FeedbackStream(StreamConfig{Capacity: 512, BatchSize: batch})
		var pending []Feedback
		rng := rand.New(rand.NewSource(36))
		oracle := feedback.NewOracle(p.Truth, 0.2, rand.New(rand.NewSource(37)))
		subjects1, subjects2 := p.DS1.Subjects(), p.DS2.Subjects()
		var fresh1, fresh2 []rdf.TermID

		// copyEntity adds a newcomer to ds under a fresh IRI, with the
		// attributes of one of its entities, so it scores like that one.
		copyEntity := func(ds interface {
			Entity(rdf.TermID) (store.Entity, bool)
			AddID(rdf.TripleID) bool
		}, from rdf.TermID, name string) rdf.TermID {
			e, _ := ds.Entity(from)
			id := p.Dict.InternIRI(name)
			for i := range e.Preds {
				ds.AddID(rdf.TripleID{S: id, P: e.Preds[i], O: e.Objs[i]})
			}
			return id
		}
		// judgements draws n items: mostly current candidates, some links
		// from a newcomer on either side.
		judgements := func(n int) []Feedback {
			cands := streamed.Candidates().Links()
			out := make([]Feedback, 0, n)
			for len(out) < n {
				var l linkset.Link
				switch k := rng.Intn(5); {
				case k == 0 && len(fresh1) > 0:
					l = linkset.Link{Left: fresh1[rng.Intn(len(fresh1))], Right: subjects2[rng.Intn(len(subjects2))]}
				case k == 1 && len(fresh2) > 0:
					l = linkset.Link{Left: subjects1[rng.Intn(len(subjects1))], Right: fresh2[rng.Intn(len(fresh2))]}
				case len(cands) > 0:
					l = cands[rng.Intn(len(cands))]
				default:
					l = linkset.Link{Left: subjects1[rng.Intn(len(subjects1))], Right: subjects2[rng.Intn(len(subjects2))]}
				}
				out = append(out, Feedback{Link: l, Approved: oracle.Judge(l)})
			}
			return out
		}
		// mirror runs the batches the stream just applied on the
		// reference and compares.
		mirror := func(step int, applied []EpisodeStats, flushed bool) {
			t.Helper()
			for bi, got := range applied {
				n := batch
				if flushed && len(pending) < batch {
					n = len(pending)
				}
				ref.SyncStores()
				want := ref.ApplyEpisode(pending[:n])
				pending = pending[n:]
				if got != want {
					t.Fatalf("workers %d step %d batch %d: stream stats %+v, reference %+v", workers, step, bi, got, want)
				}
			}
			if len(applied) == 0 {
				return
			}
			var a, b bytes.Buffer
			if err := streamed.SaveState(&a); err != nil {
				t.Fatal(err)
			}
			if err := ref.SaveState(&b); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Fatalf("workers %d step %d: SaveState differs from the reference", workers, step)
			}
			if got, want := streamed.Candidates().Links(), ref.Candidates().Links(); !slices.Equal(got, want) {
				t.Fatalf("workers %d step %d: %d candidates, reference %d", workers, step, len(got), len(want))
			}
		}

		batches := 0
		for step := 0; step < 60; step++ {
			switch k := rng.Intn(6); {
			case k == 0:
				fresh1 = append(fresh1, copyEntity(p.DS1, subjects1[rng.Intn(len(subjects1))], fmt.Sprintf("http://oracle.test/ds1/%d", step)))
			case k == 1:
				fresh2 = append(fresh2, copyEntity(p.DS2, subjects2[rng.Intn(len(subjects2))], fmt.Sprintf("http://oracle.test/ds2/%d", step)))
			default:
				// A third of the submissions flush, as a flushed POST
				// /feedback does.
				items := judgements(1 + rng.Intn(2*batch))
				pending = append(pending, items...)
				accepted, applied := s.Submit(items...)
				if accepted != len(items) {
					t.Fatalf("step %d: %d of %d items accepted", step, accepted, len(items))
				}
				batches += len(applied)
				mirror(step, applied, false)
				if k == 2 {
					applied = s.Flush()
					batches += len(applied)
					mirror(step, applied, true)
				}
			}
		}
		applied := s.Flush()
		batches += len(applied)
		mirror(60, applied, true)
		if batches < 20 || len(fresh1) < 5 || len(fresh2) < 5 {
			t.Fatalf("workers %d: %d batches, %d ds1 and %d ds2 newcomers; the test needs more", workers, batches, len(fresh1), len(fresh2))
		}
		var buf bytes.Buffer
		if err := streamed.SaveState(&buf); err != nil {
			t.Fatal(err)
		}
		saved[wi] = buf.Bytes()
	}
	if !bytes.Equal(saved[0], saved[1]) {
		t.Error("the scripted run's state differs between one and four workers")
	}
}
