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
	l := pair.Truth.Links()[0]
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
	l := pair.Truth.Links()[0]
	pt.addCandidate(l)
	pt.handleFeedback(l, false) // negative: removed + blacklisted
	if _, ok := pt.candidates[l]; ok {
		t.Fatal("link not removed on negative feedback")
	}
	if pt.addCandidate(l) {
		t.Error("blacklisted link re-added")
	}
}

func TestPartitionNoBlacklistAllowsReAdd(t *testing.T) {
	pt, pair := buildTestPartition(t, Defaults().DisableBlacklist())
	l := pair.Truth.Links()[0]
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
	pt.addCandidate(l)
	before := len(pt.candidates)
	pt.handleFeedback(l, true)
	if len(pt.candidates) <= before {
		t.Error("positive feedback explored no links")
	}
	// Every explored link carries provenance pointing at l.
	for cand := range pt.candidates {
		if cand == l {
			continue
		}
		if len(pt.provenance[cand]) == 0 {
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
	pt.addCandidate(links[0])
	pt.addCandidate(links[1])
	pt.removeCandidate(links[0])
	for i := 0; i < 20; i++ {
		got, ok := pt.sample()
		if !ok {
			t.Fatal("sample failed")
		}
		if got == links[0] {
			t.Fatal("sampled a removed link")
		}
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
	pt.addCandidate(l)
	pt.handleFeedback(l, true) // explore
	var generated []linkset.Link
	for cand := range pt.candidates {
		if cand != l {
			generated = append(generated, cand)
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
	if _, ok := pt.candidates[generated[0]]; !ok {
		t.Error("positively-confirmed link removed by rollback")
	}
	// Unconfirmed generated links are gone.
	for _, g := range generated[1:] {
		if _, ok := pt.candidates[g]; ok {
			if _, confirmed := pt.posConfirmed[g]; !confirmed {
				t.Errorf("unconfirmed generated link %v survived rollback", g)
			}
		}
	}
	// Rolled-back links that never got negative feedback are NOT
	// blacklisted (§6.3) and may be re-added.
	survivorBlacklisted := 0
	for _, g := range generated[1:] {
		if _, black := pt.blacklist[g]; black {
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
	pt.addCandidate(l)
	pt.handleFeedback(l, true)
	for cand := range pt.candidates {
		if cand != l {
			pt.handleFeedback(cand, false)
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
	pt.addCandidate(l)
	pt.handleFeedback(l, true) // explore; generated links get provenance
	var gen linkset.Link
	ok := false
	for cand := range pt.candidates {
		if cand != l && len(pt.provenance[cand]) > 0 {
			gen, ok = cand, true
			break
		}
	}
	if !ok {
		t.Skip("no generated link")
	}
	sa := pt.provenance[gen][0]
	pt.handleFeedback(gen, true)
	v1 := pt.q.Visits(sa.s, sa.a)
	pt.handleFeedback(gen, true) // second visit same episode: no new return
	if got := pt.q.Visits(sa.s, sa.a); got != v1 {
		t.Errorf("second visit added a return: %d -> %d", v1, got)
	}
	pt.visits.Reset() // new episode
	pt.handleFeedback(gen, true)
	if got := pt.q.Visits(sa.s, sa.a); got != v1+1 {
		t.Errorf("new-episode visit did not add a return: %d -> %d", v1, got)
	}
}

func TestPartitionConvergesWhenNoChanges(t *testing.T) {
	pt, pair := buildTestPartition(t, Defaults())
	_ = pair
	// Empty partition: an episode with no candidates converges immediately.
	pt.runEpisode(10, func(linkset.Link) bool { return true })
	if !pt.converged {
		t.Error("empty partition did not converge")
	}
	// Converged partitions ignore further episodes.
	episodes := pt.episodes
	pt.runEpisode(10, func(linkset.Link) bool { return true })
	if pt.episodes != episodes {
		t.Error("converged partition ran another episode")
	}
}

func TestPartitionActionsForUnknownState(t *testing.T) {
	pt, _ := buildTestPartition(t, Defaults())
	if got := pt.actions(linkset.Link{Left: 1, Right: 2}); got != nil {
		t.Errorf("actions for unknown state = %v", got)
	}
}

func TestRemoveSA(t *testing.T) {
	a := stateAction{s: linkset.Link{Left: 1, Right: 1}}
	b := stateAction{s: linkset.Link{Left: 2, Right: 2}}
	got := removeSA([]stateAction{a, b, a}, a)
	if len(got) != 1 || got[0] != b {
		t.Errorf("removeSA = %v", got)
	}
}
