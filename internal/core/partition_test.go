package core

import (
	"sync"
	"testing"

	"alex/internal/datagen"
	"alex/internal/feature"
	"alex/internal/linkset"
)

// partitionFixture caches the generated pair and its feature space across
// partition tests: building the space dominates each test's runtime, every
// test here uses the default space options, and partitions only read the
// space (FeatureSet/ExploreN), so sharing is safe.
var partitionFixture struct {
	once  sync.Once
	pair  *datagen.Pair
	space *feature.Space
	theta float64
}

// buildTestPartition constructs a single partition over a generated pair.
func buildTestPartition(t *testing.T, cfg Config) (*partition, *datagen.Pair) {
	t.Helper()
	cfg = cfg.withDefaults()
	fx := &partitionFixture
	fx.once.Do(func() {
		scale := 0.6
		if testing.Short() {
			scale = 0.35
		}
		fx.pair = datagen.GeneratePair(datagen.NBADBpediaNYTimes(scale, 31))
		fx.space = feature.Build(fx.pair.DS1, fx.pair.DS1.Subjects(), fx.pair.DS2, cfg.SpaceOptions)
		fx.theta = cfg.SpaceOptions.Theta
	})
	pair, space := fx.pair, fx.space
	if cfg.SpaceOptions.Theta != fx.theta {
		// A test with non-default space options pays for its own build.
		scale := 0.6
		if testing.Short() {
			scale = 0.35
		}
		pair = datagen.GeneratePair(datagen.NBADBpediaNYTimes(scale, 31))
		space = feature.Build(pair.DS1, pair.DS1.Subjects(), pair.DS2, cfg.SpaceOptions)
	}
	return newPartition(0, space, cfg, cfg.Seed), pair
}

func TestPartitionAddRemoveCandidate(t *testing.T) {
	pt, pair := buildTestPartition(t, Defaults())
	l := pt.linkID(pair.Truth.Links()[0])
	if !pt.addCandidate(l) {
		t.Error("addCandidate = false")
	}
	if pt.addCandidate(l) {
		t.Error("duplicate addCandidate = true")
	}
	if !pt.removeCandidate(l) {
		t.Error("removeCandidate = false")
	}
	if pt.removeCandidate(l) {
		t.Error("remove absent = true")
	}
}

func TestPartitionBlacklistBlocksReAdd(t *testing.T) {
	pt, pair := buildTestPartition(t, Defaults())
	l := pt.linkID(pair.Truth.Links()[0])
	pt.addCandidate(l)
	pt.handleFeedback(l, false) // negative: removed + blacklisted
	if pt.isCandidate(l) {
		t.Fatal("link not removed on negative feedback")
	}
	if pt.addCandidate(l) {
		t.Error("blacklisted link re-added")
	}
}

func TestPartitionNoBlacklistAllowsReAdd(t *testing.T) {
	pt, pair := buildTestPartition(t, Defaults().DisableBlacklist())
	l := pt.linkID(pair.Truth.Links()[0])
	pt.addCandidate(l)
	pt.handleFeedback(l, false)
	if !pt.addCandidate(l) {
		t.Error("link not re-addable with blacklist disabled")
	}
}

func TestPartitionPositiveFeedbackExplores(t *testing.T) {
	pt, pair := buildTestPartition(t, Defaults())
	// Use a truth link present in the space so it has a feature set.
	var l linkset.Link
	found := false
	for _, cand := range pair.Truth.Links() {
		if _, ok := pt.space.FeatureSet(cand); ok {
			l = cand
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no truth link in space")
	}
	id := pt.linkID(l)
	pt.addCandidate(id)
	before := pt.candidates
	pt.handleFeedback(id, true)
	if pt.candidates <= before {
		t.Error("positive feedback explored no links")
	}
	// Every explored link carries provenance pointing at l.
	for cand := range pt.candidateSet() {
		if cand == l {
			continue
		}
		if len(pt.ls[pt.linkID(cand)].prov) == 0 {
			t.Errorf("explored link %v has no provenance", cand)
		}
	}
}

func TestPartitionSampleEmptiness(t *testing.T) {
	pt, _ := buildTestPartition(t, Defaults())
	if _, ok := pt.sample(); ok {
		t.Error("sample from empty partition = ok")
	}
}

func TestPartitionSampleSkipsRemoved(t *testing.T) {
	pt, pair := buildTestPartition(t, Defaults())
	links := pair.Truth.Links()
	pt.addCandidate(pt.linkID(links[0]))
	pt.addCandidate(pt.linkID(links[1]))
	pt.removeCandidate(pt.linkID(links[0]))
	for i := 0; i < 20; i++ {
		got, ok := pt.sample()
		if !ok {
			t.Fatal("sample failed")
		}
		if pt.space.Link(got) == links[0] {
			t.Fatal("sampled a removed link")
		}
	}
}

// TestPartitionSampleWeightsReAddedLinks pins sample's weighting, which is
// not uniform over the candidates: a link removed and added again before a
// compaction holds two entries of order and is drawn about twice as often
// as a link added once. The reference partition draws the same way, so
// changing this moves the figures (DESIGN.md, sampling weight).
func TestPartitionSampleWeightsReAddedLinks(t *testing.T) {
	pt, pair := buildTestPartition(t, Defaults())
	links := pair.Truth.Links()
	twice, once := pt.linkID(links[0]), pt.linkID(links[1])
	pt.addCandidate(twice)
	pt.addCandidate(once)
	pt.removeCandidate(twice)
	pt.addCandidate(twice)
	if len(pt.order) != 3 || pt.candidates != 2 {
		t.Fatalf("order holds %d entries for %d candidates, want 3 for 2", len(pt.order), pt.candidates)
	}
	const draws = 6000
	n := 0
	for i := 0; i < draws; i++ {
		id, ok := pt.sample()
		if !ok {
			t.Fatal("sample failed")
		}
		if id == twice {
			n++
		}
	}
	if share := float64(n) / draws; share < 0.62 || share > 0.71 {
		t.Errorf("the re-added link was drawn %.3f of the time, want about 2/3", share)
	}
	if len(pt.order) != 3 {
		t.Errorf("sampling two live candidates compacted order to %d entries", len(pt.order))
	}
}

func TestPartitionRollback(t *testing.T) {
	cfg := Defaults()
	cfg.RollbackNegatives = 3
	pt, pair := buildTestPartition(t, cfg)
	var l linkset.Link
	for _, cand := range pair.Truth.Links() {
		if _, ok := pt.space.FeatureSet(cand); ok {
			l = cand
			break
		}
	}
	pt.addCandidate(pt.linkID(l))
	pt.handleFeedback(pt.linkID(l), true) // explore
	var generated []uint32
	for cand := range pt.candidateSet() {
		if cand != l {
			generated = append(generated, pt.linkID(cand))
		}
	}
	if len(generated) < 3 {
		t.Skipf("exploration produced only %d links; need >= 3 for this test", len(generated))
	}
	// Mark one generated link as positively confirmed: it must survive.
	pt.handleFeedback(generated[0], true)
	// Hit three others with negative feedback to trigger rollback.
	neg := 0
	for _, g := range generated[1:] {
		if neg == 3 {
			break
		}
		pt.handleFeedback(g, false)
		neg++
	}
	if neg < 3 {
		t.Skip("not enough generated links to trigger rollback")
	}
	if pt.rollbacks == 0 {
		t.Fatal("rollback not triggered")
	}
	if !pt.isCandidate(generated[0]) {
		t.Error("positively-confirmed link removed by rollback")
	}
	// Unconfirmed generated links are gone.
	for _, g := range generated[1:] {
		if pt.isCandidate(g) && pt.ls[g].flags&isConfirmed == 0 {
			t.Errorf("unconfirmed generated link %v survived rollback", pt.space.Link(g))
		}
	}
	// Rolled-back links that never got negative feedback are NOT
	// blacklisted (§6.3) and may be re-added.
	survivorBlacklisted := 0
	for _, g := range generated[1:] {
		if pt.ls[g].flags&isBlacklisted != 0 {
			survivorBlacklisted++
		}
	}
	if survivorBlacklisted > neg {
		t.Errorf("%d links blacklisted, only %d received negative feedback", survivorBlacklisted, neg)
	}
}

func TestPartitionRollbackDisabled(t *testing.T) {
	cfg := Defaults().DisableRollback()
	cfg.RollbackNegatives = 1
	pt, pair := buildTestPartition(t, cfg)
	var l linkset.Link
	for _, cand := range pair.Truth.Links() {
		if _, ok := pt.space.FeatureSet(cand); ok {
			l = cand
			break
		}
	}
	pt.addCandidate(pt.linkID(l))
	pt.handleFeedback(pt.linkID(l), true)
	for cand := range pt.candidateSet() {
		if cand != l {
			pt.handleFeedback(pt.linkID(cand), false)
			break
		}
	}
	if pt.rollbacks != 0 {
		t.Error("rollback ran while disabled")
	}
}

func TestPartitionFirstVisitRewardOncePerEpisode(t *testing.T) {
	pt, pair := buildTestPartition(t, Defaults())
	var l linkset.Link
	for _, cand := range pair.Truth.Links() {
		if _, ok := pt.space.FeatureSet(cand); ok {
			l = cand
			break
		}
	}
	pt.addCandidate(pt.linkID(l))
	pt.handleFeedback(pt.linkID(l), true) // explore; generated links get provenance
	var gen uint32
	ok := false
	for cand := range pt.candidateSet() {
		if id := pt.linkID(cand); cand != l && len(pt.ls[id].prov) > 0 {
			gen, ok = id, true
			break
		}
	}
	if !ok {
		t.Skip("no generated link")
	}
	sa := pt.ls[gen].prov[0]
	pt.handleFeedback(gen, true)
	v1 := pt.q.Visits(sa)
	pt.handleFeedback(gen, true) // second visit same episode: no new return
	if got := pt.q.Visits(sa); got != v1 {
		t.Errorf("second visit added a return: %d -> %d", v1, got)
	}
	pt.visits.Reset() // new episode
	pt.handleFeedback(gen, true)
	if got := pt.q.Visits(sa); got != v1+1 {
		t.Errorf("new-episode visit did not add a return: %d -> %d", v1, got)
	}
}

func TestPartitionConvergesWhenNoChanges(t *testing.T) {
	pt, _ := buildTestPartition(t, Defaults())
	none := func(int) (uint32, bool, bool) { return 0, false, false }
	// Empty partition: an episode with no feedback converges immediately,
	// and another that changes nothing leaves it converged.
	pt.episode(none)
	if !pt.converged {
		t.Error("empty partition did not converge")
	}
	pt.episode(none)
	if !pt.converged || pt.episodes != 2 {
		t.Errorf("after a second empty episode: converged %v, %d episodes; want true, 2", pt.converged, pt.episodes)
	}
}

func TestPartitionActionsForUnknownState(t *testing.T) {
	pt, _ := buildTestPartition(t, Defaults())
	if got := pt.actions(pt.linkID(linkset.Link{Left: 1, Right: 2})); got != nil {
		t.Errorf("actions for unknown state = %v", got)
	}
}

func TestRemoveSA(t *testing.T) {
	got := removeSA([]uint32{1, 2, 1}, 1)
	if len(got) != 1 || got[0] != 2 {
		t.Errorf("removeSA = %v", got)
	}
}

// candidateSet returns the partition's candidates as a set.
func (p *partition) candidateSet() map[linkset.Link]struct{} {
	out := make(map[linkset.Link]struct{}, p.candidates)
	for id, st := range p.ls {
		if st.flags&isCandidate != 0 {
			out[p.space.Link(uint32(id))] = struct{}{}
		}
	}
	return out
}
