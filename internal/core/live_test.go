package core

import (
	"bytes"
	"fmt"
	"testing"

	"alex/internal/feature"
	"alex/internal/rdf"
)

// TestUpsertPartitionDeterminism is the regression test for subject-set
// growth: new subjects arriving via upsert must land in the same
// partition regardless of worker count and of how arrivals are batched,
// and must match a from-scratch engine over the grown store.
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
				e.UpsertSubjects(id)
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
// DS2 term profiles — that all 8 spaces read, and DS2-side and DS1-side
// deltas driven through the engine (the side updated once, by the engine,
// then the partitions rescoring in parallel) leave every partition's space
// byte-identical to a from-scratch Build over the final stores. Run under
// -race it also checks that nothing writes the side while partitions read.
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
			novelID, _ := p.Dict.Lookup(novel)
			e.ApplyObjectDeltas(r0, novelID)

			// DS1: new subjects (one per partition and then some) and an
			// edit to an existing one.
			ds1subs := p.DS1.Subjects()
			changed := []rdf.TermID{ds1subs[3]}
			p.DS1.Add(rdf.Triple{S: p.Dict.Term(ds1subs[3]), P: rdf.NewIRI("http://share.test/p/nick"), O: rdf.NewString("golden state")})
			for i := 0; i < 11; i++ {
				iri := rdf.NewIRI(fmt.Sprintf("http://share.test/e%d", i))
				p.DS1.Add(rdf.Triple{S: iri, P: rdf.NewIRI("http://share.test/p/name"), O: rdf.NewString(fmt.Sprintf("lakers warriors %d", 1980+i))})
				id, _ := p.Dict.Lookup(iri)
				changed = append(changed, id)
			}
			e.UpsertSubjects(changed...)

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
						t.Errorf("partition %d: space after engine deltas differs from a fresh Build at %d workers (%d vs %d bytes)",
							i, w, got.Len(), want.Len())
					}
				}
			}
		})
	}
}
