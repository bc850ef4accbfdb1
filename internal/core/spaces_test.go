package core

import (
	"bytes"
	"fmt"
	"testing"

	"alex/internal/datagen"
	"alex/internal/feature"
)

// requireSpacesMatchBuild holds every partition space of e to a
// feature.Build of that partition alone, dump for dump: the same pairs, the
// same score bits, the same index order.
func requireSpacesMatchBuild(t *testing.T, ctx string, e *Engine, p *datagen.Pair) {
	t.Helper()
	parts := feature.Partition(p.DS1.Subjects(), len(e.partitions))
	for i, pt := range e.partitions {
		var got, want bytes.Buffer
		if err := pt.space.DumpCanonical(&got); err != nil {
			t.Fatal(err)
		}
		if err := feature.Build(p.DS1, parts[i], p.DS2, e.cfg.SpaceOptions).DumpCanonical(&want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%s: partition %d's space differs from feature.Build of the partition (%d vs %d bytes)",
				ctx, i, got.Len(), want.Len())
		}
	}
}

// TestEngineSpacesMatchBuild: the spaces New builds over the link_batch
// data sets (DBpediaNYTimes at scale 0.2, eight partitions) equal a
// one-partition feature.Build of each partition at 1, 2 and 4 workers; so
// do two engines built back to back over different pairs on one goroutine,
// where scorers and their memos pass from one build to the next.
func TestEngineSpacesMatchBuild(t *testing.T) {
	seeds := []int64{1000, 1001, 1002, 1003}
	if testing.Short() {
		seeds = seeds[:2]
	}
	pairs := make([]*datagen.Pair, len(seeds))
	for i, seed := range seeds {
		pairs[i] = datagen.GeneratePair(datagen.DBpediaNYTimes(0.2, seed))
	}
	config := func(workers int) Config {
		cfg := Defaults()
		cfg.Partitions = 8
		cfg.Workers = workers
		return cfg
	}
	for i, p := range pairs {
		for _, workers := range []int{1, 2, 4} {
			e := New(p.DS1, p.DS2, config(workers))
			requireSpacesMatchBuild(t, fmt.Sprintf("seed %d workers %d", seeds[i], workers), e, p)
		}
	}
	for round := 0; round < 2; round++ {
		for i, p := range pairs[:2] {
			e := New(p.DS1, p.DS2, config(1))
			requireSpacesMatchBuild(t, fmt.Sprintf("back-to-back round %d seed %d", round, seeds[i]), e, p)
		}
	}
}
