package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"alex/internal/datagen"
	"alex/internal/feature"
	"alex/internal/linkset"
	"alex/internal/rdf"
	"alex/internal/store"
)

// TestUpsertPartitionDeterminism is the regression test for subject-set
// growth: new subjects synced one by one or in one batch must land in the
// same partition regardless of worker count, and must match a
// from-scratch engine over the grown store.
func TestUpsertPartitionDeterminism(t *testing.T) {
	build := func(workers int, batched bool) (*Engine, []rdf.TermID) {
		p := testPair(41)
		cfg := smallConfig(41)
		cfg.Workers = workers
		e := New(p.DS1, p.DS2, cfg)
		var grown []rdf.TermID
		for i := 0; i < 10; i++ {
			iri := rdf.NewIRI(fmt.Sprintf("http://grow.test/e%d", i))
			p.DS1.Add(rdf.Triple{
				S: iri,
				P: rdf.NewIRI("http://grow.test/p/name"),
				O: rdf.NewString(fmt.Sprintf("grown entity %d", i)),
			})
			id, ok := p.Dict.Lookup(iri)
			if !ok {
				t.Fatal("grown subject not interned")
			}
			grown = append(grown, id)
			if !batched {
				e.SyncStores()
			}
		}
		if batched {
			st := e.SyncStores()
			if st.NewSubjects != len(grown) {
				t.Fatalf("SyncStores ingested %d subjects, want %d", st.NewSubjects, len(grown))
			}
		}
		return e, grown
	}

	eOne, grown := build(1, false)
	eBatch, _ := build(4, true)
	for _, id := range grown {
		p1, ok1 := eOne.PartitionOf(id)
		p2, ok2 := eBatch.PartitionOf(id)
		if !ok1 || !ok2 {
			t.Fatalf("grown subject %d not routed (one-by-one=%v batched=%v)", id, ok1, ok2)
		}
		if p1 != p2 {
			t.Errorf("subject %d: partition %d one-by-one vs %d batched", id, p1, p2)
		}
	}

	// A from-scratch engine over the grown store must agree on routing
	// and produce identical space sizes — the engine-level face of the
	// feature-level Build-equivalence contract.
	pFresh := testPair(41)
	for i := 0; i < 10; i++ {
		pFresh.DS1.Add(rdf.Triple{
			S: rdf.NewIRI(fmt.Sprintf("http://grow.test/e%d", i)),
			P: rdf.NewIRI("http://grow.test/p/name"),
			O: rdf.NewString(fmt.Sprintf("grown entity %d", i)),
		})
	}
	eFresh := New(pFresh.DS1, pFresh.DS2, smallConfig(41))
	for i, id := range grown {
		iri := rdf.NewIRI(fmt.Sprintf("http://grow.test/e%d", i))
		fid, ok := pFresh.Dict.Lookup(iri)
		if !ok {
			t.Fatal("grown subject missing from fresh store")
		}
		pGrown, _ := eOne.PartitionOf(id)
		pFreshPart, ok := eFresh.PartitionOf(fid)
		if !ok || pGrown != pFreshPart {
			t.Errorf("subject %d: grown engine partition %d, fresh engine %d (ok=%v)", i, pGrown, pFreshPart, ok)
		}
	}
	for i := 0; i < eOne.Partitions(); i++ {
		t1, f1 := eOne.SpaceStats(i)
		t2, f2 := eFresh.SpaceStats(i)
		if t1 != t2 || f1 != f2 {
			t.Errorf("partition %d: grown space (total=%d filtered=%d) vs fresh build (total=%d filtered=%d)", i, t1, f1, t2, f2)
		}
	}
}

// TestSyncStoresDS2Growth folds a new DS2 entity in through the
// object-delta path and checks the spaces see it.
func TestSyncStoresDS2Growth(t *testing.T) {
	p := testPair(42)
	e := New(p.DS1, p.DS2, smallConfig(42))
	var before int
	for i := 0; i < e.Partitions(); i++ {
		total, _ := e.SpaceStats(i)
		before += total
	}
	p.DS2.Add(rdf.Triple{
		S: rdf.NewIRI("http://grow.test/r0"),
		P: rdf.NewIRI("http://grow.test/p/name"),
		O: rdf.NewString("fresh right-side entity"),
	})
	st := e.SyncStores()
	if st.NewObjects != 1 {
		t.Fatalf("SyncStores ingested %d ds2 subjects, want 1", st.NewObjects)
	}
	var after int
	for i := 0; i < e.Partitions(); i++ {
		total, _ := e.SpaceStats(i)
		after += total
	}
	// Each partition's cross product grows by its member count: the sum
	// grows by |DS1 subjects routed|.
	if after <= before {
		t.Errorf("TotalPairs did not grow: %d -> %d", before, after)
	}
	// A second sync with no store change is a no-op.
	if st := e.SyncStores(); st.NewSubjects != 0 || st.NewObjects != 0 {
		t.Errorf("idle SyncStores ingested %+v", st)
	}
}

// TestEngineSharesOneDS2Side pins the shared DS2 side: an engine with 8
// partitions makes one feature.RightSide — one blocking index, one set of
// DS2 term profiles — that all 8 spaces read, and one SyncStores over
// growth on both sides, in-place edits included (the side updated once, by
// the engine, then the partitions rescoring in parallel), leaves every
// partition's space byte-identical to a from-scratch Build over the final
// stores. Run under -race it also checks that nothing writes the side
// while partitions read.
func TestEngineSharesOneDS2Side(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			p := testPair(43)
			cfg := smallConfig(43)
			cfg.Partitions = 8
			cfg.Workers = workers
			e := New(p.DS1, p.DS2, cfg)

			sides := map[*feature.RightSide]int{}
			for _, pt := range e.partitions {
				sides[pt.space.Right()]++
			}
			if len(sides) != 1 || sides[e.right] != len(e.partitions) {
				t.Fatalf("%d partitions read %d DS2 sides (%d of them the engine's), want 1 shared by all",
					len(e.partitions), len(sides), sides[e.right])
			}

			// DS2: extend an entity with token-moving and IRI-valued
			// attributes, and add a new one.
			r0 := p.DS2.Subjects()[0]
			p.DS2.Add(rdf.Triple{S: p.Dict.Term(r0), P: rdf.NewIRI("http://share.test/p/alias"), O: rdf.NewString("golden state warriors")})
			p.DS2.Add(rdf.Triple{S: p.Dict.Term(r0), P: rdf.NewIRI("http://share.test/p/seeAlso"), O: rdf.NewIRI("http://share.test/other")})
			novel := rdf.NewIRI("http://share.test/novel")
			p.DS2.Add(rdf.Triple{S: novel, P: rdf.NewIRI("http://share.test/p/name"), O: rdf.NewString("los angeles lakers 1984")})

			// DS1: an edit to an existing subject and new subjects (one
			// per partition and then some).
			ds1subs := p.DS1.Subjects()
			p.DS1.Add(rdf.Triple{S: p.Dict.Term(ds1subs[3]), P: rdf.NewIRI("http://share.test/p/nick"), O: rdf.NewString("golden state")})
			for i := 0; i < 11; i++ {
				iri := rdf.NewIRI(fmt.Sprintf("http://share.test/e%d", i))
				p.DS1.Add(rdf.Triple{S: iri, P: rdf.NewIRI("http://share.test/p/name"), O: rdf.NewString(fmt.Sprintf("lakers warriors %d", 1980+i))})
			}
			if st := e.SyncStores(); st != (SyncStats{NewSubjects: 11, NewObjects: 1}) {
				t.Fatalf("SyncStores ingested %+v, want 11 ds1 and 1 ds2 subjects", st)
			}

			members := make([][]rdf.TermID, len(e.partitions))
			for _, s := range p.DS1.Subjects() {
				pi, ok := e.PartitionOf(s)
				if !ok {
					t.Fatalf("subject %d not routed", s)
				}
				members[pi] = append(members[pi], s)
			}
			for i, pt := range e.partitions {
				var got bytes.Buffer
				if err := pt.space.DumpCanonical(&got); err != nil {
					t.Fatal(err)
				}
				for _, w := range []int{1, 4} {
					opt := e.cfg.SpaceOptions
					opt.Workers = w
					var want bytes.Buffer
					if err := feature.Build(p.DS1, members[i], p.DS2, opt).DumpCanonical(&want); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got.Bytes(), want.Bytes()) {
						t.Errorf("partition %d: space after SyncStores differs from a fresh Build at %d workers (%d vs %d bytes)",
							i, w, got.Len(), want.Len())
					}
				}
			}
		})
	}
}

// TestLiveSyncGolden freezes what live store growth does to the engine:
// seeded growth of new DS1 subjects, new DS2 subjects and both sides
// before one sync, caught up by SyncStores or by the feedback stream's
// batch apply, interleaved with FeedbackStream batches judged by the
// truth, then flushed. After every step it records the sync's stats, the
// candidate count and every partition's SpaceStats; at the end the SHA-256
// of SaveState and of every partition's DumpCanonical. One and four
// workers must both write the recorded text. Regenerate with:
// go test ./internal/core -run TestLiveSyncGolden -update
func TestLiveSyncGolden(t *testing.T) {
	path := filepath.Join("testdata", "livesync.golden")
	for _, workers := range []int{1, 4} {
		got := liveSyncScript(t, workers)
		if *update && workers == 1 {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read golden (run with -update to create it): %v", err)
		}
		if !bytes.Equal(got, want) {
			gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
			for i := range min(len(gl), len(wl)) {
				if gl[i] != wl[i] {
					t.Fatalf("workers %d: livesync.golden differs at line %d:\n got: %s\nwant: %s", workers, i+1, gl[i], wl[i])
				}
			}
			t.Fatalf("workers %d: livesync.golden differs in length: %d lines, want %d", workers, len(gl), len(wl))
		}
	}
}

// liveSyncScript runs TestLiveSyncGolden's script and returns its record.
func liveSyncScript(t *testing.T, workers int) []byte {
	t.Helper()
	pair := datagen.GeneratePair(datagen.NBADBpediaNYTimes(0.25, 61))
	cfg := smallConfig(61)
	cfg.Partitions = 3
	cfg.Workers = workers
	cfg.MaxEpisodes = 1 << 20
	e := New(pair.DS1, pair.DS2, cfg)
	e.SetInitialLinks(initialLinks(pair))
	stream := e.FeedbackStream(StreamConfig{BatchSize: 8})
	rng := rand.New(rand.NewSource(61))
	subjects1, subjects2 := pair.DS1.Subjects(), pair.DS2.Subjects()
	var fresh1, fresh2 []rdf.TermID

	// grow adds a newcomer to ds under a fresh IRI, with the attributes
	// of one of its original entities, so it scores like that one.
	grow := func(ds *store.Store, from []rdf.TermID, fresh *[]rdf.TermID, side string) {
		src, _ := ds.Entity(from[rng.Intn(len(from))])
		id := pair.Dict.InternIRI(fmt.Sprintf("http://livesync.test/%s/%d", side, len(*fresh)))
		for i := range src.Preds {
			ds.AddID(rdf.TripleID{S: id, P: src.Preds[i], O: src.Objs[i]})
		}
		*fresh = append(*fresh, id)
	}
	// judge submits 1–12 items judged by the truth: mostly candidates,
	// some links from a newcomer on either side.
	judge := func() []EpisodeStats {
		cands := e.Candidates().Links()
		var items []Feedback
		for n := 1 + rng.Intn(12); n > 0; n-- {
			var l linkset.Link
			switch k := rng.Intn(4); {
			case k == 0 && len(fresh1) > 0:
				l = linkset.Link{Left: fresh1[rng.Intn(len(fresh1))], Right: subjects2[rng.Intn(len(subjects2))]}
			case k == 1 && len(fresh2) > 0:
				l = linkset.Link{Left: subjects1[rng.Intn(len(subjects1))], Right: fresh2[rng.Intn(len(fresh2))]}
			default:
				l = cands[rng.Intn(len(cands))]
			}
			items = append(items, Feedback{Link: l, Approved: pair.Truth.Contains(l)})
		}
		_, applied := stream.Submit(items...)
		return applied
	}

	var out bytes.Buffer
	fmt.Fprintf(&out, "# TestLiveSyncGolden over NBADBpediaNYTimes(0.25, 61), 3 partitions. Regenerate with: go test ./internal/core -run TestLiveSyncGolden -update\n")
	// fields is an EpisodeStats without its String method, so every
	// field is recorded.
	type fields EpisodeStats
	record := func(step string, st SyncStats, applied []EpisodeStats) {
		fmt.Fprintf(&out, "%s sync=%+v candidates=%d", step, st, e.CandidateCount())
		for _, a := range applied {
			fmt.Fprintf(&out, " applied=%+v", fields(a))
		}
		fmt.Fprint(&out, " spaces=")
		for i := 0; i < e.Partitions(); i++ {
			total, filtered := e.SpaceStats(i)
			fmt.Fprintf(&out, " %d/%d", total, filtered)
		}
		fmt.Fprintln(&out)
	}
	for step := 0; step < 40; step++ {
		var st SyncStats
		var applied []EpisodeStats
		kind := rng.Intn(6)
		if kind == 0 || kind == 2 || kind == 3 {
			grow(pair.DS1, subjects1, &fresh1, "ds1")
		}
		if kind == 1 || kind == 2 || kind == 3 {
			grow(pair.DS2, subjects2, &fresh2, "ds2")
		}
		if kind < 3 {
			st = e.SyncStores()
		} else {
			applied = judge()
		}
		record(fmt.Sprintf("step %d kind %d", step, kind), st, applied)
	}
	record("flush", SyncStats{}, stream.Flush())

	var state bytes.Buffer
	if err := e.SaveState(&state); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&out, "savestate bytes=%d sha256=%x\n", state.Len(), sha256.Sum256(state.Bytes()))
	for i, p := range e.partitions {
		var dump bytes.Buffer
		if err := p.space.DumpCanonical(&dump); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "partition %d dump bytes=%d sha256=%x\n", i, dump.Len(), sha256.Sum256(dump.Bytes()))
	}
	return out.Bytes()
}
