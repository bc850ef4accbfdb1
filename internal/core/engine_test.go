package core

import (
	"math/rand"
	"testing"

	"alex/internal/datagen"
	"alex/internal/feature"
	"alex/internal/feedback"
	"alex/internal/linkset"
	"alex/internal/obs"
	"alex/internal/paris"
)

// testPair generates a small NBA-style linking task. In -short mode the
// task shrinks: feature-space construction is roughly quadratic in scale
// and dominates every engine test.
func testPair(seed int64) *datagen.Pair {
	scale := 1.0
	if testing.Short() {
		scale = 0.25
	}
	return datagen.GeneratePair(datagen.NBADBpediaNYTimes(scale, seed))
}

// initialLinks runs PARIS over the pair.
func initialLinks(p *datagen.Pair) []linkset.Link {
	scored := paris.Link(p.DS1, p.DS2, paris.DefaultConfig())
	out := make([]linkset.Link, len(scored))
	for i, s := range scored {
		out[i] = s.Link
	}
	return out
}

func smallConfig(seed int64) Config {
	c := Defaults()
	c.EpisodeSize = 40
	c.Partitions = 2
	c.MaxEpisodes = 30
	c.Seed = seed
	return c
}

func TestEngineImprovesQuality(t *testing.T) {
	p := testPair(3)
	e := New(p.DS1, p.DS2, smallConfig(3))
	init := initialLinks(p)
	e.SetInitialLinks(init)
	startQ := linkset.Evaluate(e.Candidates(), p.Truth)

	oracle := feedback.NewOracle(p.Truth, 0, rand.New(rand.NewSource(3)))
	stats := e.Run(SerialJudge(oracle.JudgeFunc()), nil)
	if len(stats) == 0 {
		t.Fatal("no episodes ran")
	}
	endQ := linkset.Evaluate(e.Candidates(), p.Truth)
	t.Logf("start %v -> end %v in %d episodes", startQ, endQ, len(stats))
	if endQ.FMeasure <= startQ.FMeasure {
		t.Errorf("F-measure did not improve: %g -> %g", startQ.FMeasure, endQ.FMeasure)
	}
	if endQ.Recall <= startQ.Recall {
		t.Errorf("recall did not improve: %g -> %g", startQ.Recall, endQ.Recall)
	}
	if !e.Converged() && len(stats) < 30 {
		t.Error("run stopped without convergence before MaxEpisodes")
	}
}

func TestEngineDiscoversNewLinks(t *testing.T) {
	p := testPair(5)
	e := New(p.DS1, p.DS2, smallConfig(5))
	init := initialLinks(p)
	e.SetInitialLinks(init)
	initSet := linkset.FromLinks(init)

	oracle := feedback.NewOracle(p.Truth, 0, rand.New(rand.NewSource(5)))
	e.Run(SerialJudge(oracle.JudgeFunc()), nil)

	discovered := 0
	for _, l := range e.Candidates().Links() {
		if !initSet.Contains(l) && p.Truth.Contains(l) {
			discovered++
		}
	}
	t.Logf("discovered %d new correct links (truth %d, initial %d)",
		discovered, p.Truth.Len(), len(init))
	if discovered == 0 {
		t.Error("no new correct links discovered")
	}
}

func TestEngineRemovesRejectedLinks(t *testing.T) {
	p := testPair(7)
	e := New(p.DS1, p.DS2, smallConfig(7))
	// Seed with deliberately wrong links: pair each truth-left with a
	// wrong right entity from another truth link.
	truth := p.Truth.Links()
	var wrong []linkset.Link
	for i := 0; i+1 < len(truth) && len(wrong) < 10; i += 2 {
		wrong = append(wrong, linkset.Link{Left: truth[i].Left, Right: truth[i+1].Right})
	}
	e.SetInitialLinks(wrong)
	if e.Candidates().Len() == 0 {
		t.Fatal("wrong links not seeded")
	}
	oracle := feedback.NewOracle(p.Truth, 0, rand.New(rand.NewSource(7)))
	e.Run(SerialJudge(oracle.JudgeFunc()), nil)
	for _, l := range e.Candidates().Links() {
		if !p.Truth.Contains(l) {
			// Some wrong links may survive if never sampled, but with 40
			// feedback per episode over 10 candidates they all get hit.
			t.Errorf("wrong link %v survived", l)
		}
	}
}

func TestEngineDeterministicRuns(t *testing.T) {
	run := func() []linkset.Link {
		p := testPair(11)
		e := New(p.DS1, p.DS2, smallConfig(11))
		e.SetInitialLinks(initialLinks(p))
		oracle := feedback.NewOracle(p.Truth, 0, rand.New(rand.NewSource(11)))
		// Oracle with zero error rate is stateless across goroutines.
		for i := 0; i < 5; i++ {
			e.RunEpisode(oracle.JudgeFunc())
		}
		return e.Candidates().Links()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs differ in size: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs differ at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestEngineConvergence(t *testing.T) {
	p := testPair(13)
	e := New(p.DS1, p.DS2, smallConfig(13))
	e.SetInitialLinks(initialLinks(p))
	oracle := feedback.NewOracle(p.Truth, 0, rand.New(rand.NewSource(13)))
	stats := e.Run(SerialJudge(oracle.JudgeFunc()), nil)
	if !e.Converged() {
		t.Fatal("engine did not converge")
	}
	last := stats[len(stats)-1]
	if !last.Converged {
		t.Error("last episode stats not marked converged")
	}
	// Further episodes are no-ops.
	before := e.Candidates().Len()
	st := e.RunEpisode(oracle.JudgeFunc())
	if st.Added != 0 || st.Removed != 0 {
		t.Errorf("converged engine still changed links: %+v", st)
	}
	if e.Candidates().Len() != before {
		t.Error("converged engine candidate set changed")
	}
}

func TestEngineStatsAccounting(t *testing.T) {
	p := testPair(17)
	e := New(p.DS1, p.DS2, smallConfig(17))
	e.SetInitialLinks(initialLinks(p))
	oracle := feedback.NewOracle(p.Truth, 0, rand.New(rand.NewSource(17)))
	st := e.RunEpisode(oracle.JudgeFunc())
	if st.Episode != 1 {
		t.Errorf("Episode = %d", st.Episode)
	}
	if st.Feedback != st.Positive+st.Negative {
		t.Errorf("feedback accounting: %+v", st)
	}
	if st.Feedback == 0 {
		t.Error("no feedback processed")
	}
	if st.Candidates != e.Candidates().Len() {
		t.Errorf("Candidates = %d, set = %d", st.Candidates, e.Candidates().Len())
	}
	if st.NegativeShare() < 0 || st.NegativeShare() > 1 {
		t.Errorf("NegativeShare = %g", st.NegativeShare())
	}
	if st.String() == "" {
		t.Error("empty String")
	}
}

func TestEngineObserverCalled(t *testing.T) {
	p := testPair(19)
	e := New(p.DS1, p.DS2, smallConfig(19))
	e.SetInitialLinks(initialLinks(p))
	oracle := feedback.NewOracle(p.Truth, 0, rand.New(rand.NewSource(19)))
	calls := 0
	e.Run(SerialJudge(oracle.JudgeFunc()), func(EpisodeStats) { calls++ })
	if calls != e.Episode() {
		t.Errorf("observer calls = %d, episodes = %d", calls, e.Episode())
	}
}

func TestEngineSetInitialLinksRouting(t *testing.T) {
	p := testPair(23)
	e := New(p.DS1, p.DS2, smallConfig(23))
	// A link with an unknown left subject is dropped.
	e.SetInitialLinks([]linkset.Link{{Left: 999999, Right: 1}})
	if e.Candidates().Len() != 0 {
		t.Error("unroutable link accepted")
	}
	truth := p.Truth.Links()
	e.SetInitialLinks(truth[:3])
	if e.Candidates().Len() != 3 {
		t.Errorf("Candidates = %d, want 3", e.Candidates().Len())
	}
}

func TestEnginePartitionAccessors(t *testing.T) {
	p := testPair(29)
	e := New(p.DS1, p.DS2, smallConfig(29))
	if e.Partitions() != 2 {
		t.Errorf("Partitions = %d", e.Partitions())
	}
	total, filtered := e.SpaceStats(0)
	if total <= 0 || filtered <= 0 || filtered > total {
		t.Errorf("SpaceStats = %d, %d", total, filtered)
	}
	e.SetInitialLinks(initialLinks(p))
	oracle := feedback.NewOracle(p.Truth, 0, rand.New(rand.NewSource(29)))
	e.RunEpisode(oracle.JudgeFunc())
	n := 0
	for i := 0; i < e.Partitions(); i++ {
		n += len(e.PartitionCandidates(i))
		if e.PartitionEpisodes(i) != 1 {
			t.Errorf("partition %d episodes = %d", i, e.PartitionEpisodes(i))
		}
		_ = e.PartitionConverged(i)
	}
	if n != e.Candidates().Len() {
		t.Errorf("partition candidates %d != global %d", n, e.Candidates().Len())
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	d := Defaults()
	if c.StepSize != d.StepSize || c.EpisodeSize != d.EpisodeSize ||
		c.Epsilon != d.Epsilon || c.Theta != d.Theta ||
		c.Partitions != d.Partitions || c.MaxEpisodes != d.MaxEpisodes {
		t.Errorf("withDefaults = %+v", c)
	}
	if c.blacklistOff || c.rollbackOff || c.featurePriorOff {
		t.Error("optimizations not enabled by default")
	}
	if c.SpaceOptions.Theta != c.Theta {
		t.Error("space theta not synchronized")
	}
}

// TestConfigKeepsPartialSpaceOptions: withDefaults fills only the zero
// fields of SpaceOptions, and Theta is Config's.
func TestConfigKeepsPartialSpaceOptions(t *testing.T) {
	c := Config{SpaceOptions: feature.Options{MaxBlockSize: 16, Workers: 1}}.withDefaults()
	want := feature.Options{Theta: Defaults().Theta, MaxBlockSize: 16, Workers: 1}
	if c.SpaceOptions != want {
		t.Errorf("withDefaults().SpaceOptions = %+v, want %+v", c.SpaceOptions, want)
	}
	c = Config{Theta: 0.5, SpaceOptions: feature.Options{Theta: 0.7}}.withDefaults()
	want = feature.Options{Theta: 0.5, MaxBlockSize: feature.DefaultOptions().MaxBlockSize}
	if c.SpaceOptions != want {
		t.Errorf("withDefaults().SpaceOptions = %+v, want %+v", c.SpaceOptions, want)
	}
}

func TestConfigDisableOptimizations(t *testing.T) {
	c := Defaults().DisableBlacklist().withDefaults()
	if !c.blacklistOff {
		t.Error("blacklist still enabled")
	}
	if c.rollbackOff || c.featurePriorOff {
		t.Error("rollback and the feature prior should stay enabled")
	}
	c2 := Defaults().DisableRollback().withDefaults()
	if !c2.rollbackOff {
		t.Error("rollback still enabled")
	}
	if c2.blacklistOff || c2.featurePriorOff {
		t.Error("the blacklist and the feature prior should stay enabled")
	}
	c3 := Defaults().DisableFeaturePrior().withDefaults()
	if !c3.featurePriorOff {
		t.Error("feature prior still enabled")
	}
	if c3.blacklistOff || c3.rollbackOff {
		t.Error("the blacklist and rollback should stay enabled")
	}
}

// TestEngineInvariantsProperty drives the engine with randomized feedback
// and checks structural invariants after every episode: candidates never
// intersect the blacklist, and every candidate with provenance refers to
// live bookkeeping.
func TestEngineInvariantsProperty(t *testing.T) {
	seeds := []int64{3, 17, 91, 404}
	scale := 0.7
	if testing.Short() {
		seeds = seeds[:2]
		scale = 0.25
	}
	for _, seed := range seeds {
		p := datagen.GeneratePair(datagen.NBADBpediaNYTimes(scale, seed))
		cfg := smallConfig(seed)
		e := New(p.DS1, p.DS2, cfg)
		e.SetInitialLinks(initialLinksOf(p))
		rng := rand.New(rand.NewSource(seed))
		// A noisy judge: mostly truth-based, sometimes random.
		judge := func(l linkset.Link) bool {
			if rng.Float64() < 0.15 {
				return rng.Intn(2) == 0
			}
			return p.Truth.Contains(l)
		}
		for ep := 0; ep < 8 && !e.Converged(); ep++ {
			e.RunEpisode(SerialJudge(judge))
			for i := 0; i < e.Partitions(); i++ {
				part := e.partitions[i]
				for id, st := range part.ls {
					if st.flags&isCandidate != 0 && st.flags&isBlacklisted != 0 {
						t.Fatalf("seed %d: blacklisted link %v still a candidate", seed, part.space.Link(uint32(id)))
					}
				}
				for _, sa := range part.sas {
					if sa.rolledBack && len(sa.gen) > 0 {
						t.Fatalf("seed %d: rolled-back pair retains genLinks", seed)
					}
				}
			}
		}
	}
}

func initialLinksOf(p *datagen.Pair) []linkset.Link {
	scored := paris.Link(p.DS1, p.DS2, paris.DefaultConfig())
	out := make([]linkset.Link, len(scored))
	for i, s := range scored {
		out[i] = s.Link
	}
	return out
}

// TestEpisodeLatencyRecorded pins core.episode_ns: with a registry
// attached, an episode run by RunEpisode and one applied by ApplyEpisode
// each record one positive observation.
func TestEpisodeLatencyRecorded(t *testing.T) {
	p := testPair(37)
	e := New(p.DS1, p.DS2, smallConfig(37))
	e.SetInitialLinks(initialLinks(p))
	reg := obs.NewRegistry()
	e.SetObserver(reg)
	h := reg.Histogram(obs.CoreEpisodeNS)

	oracle := feedback.NewOracle(p.Truth, 0, rand.New(rand.NewSource(37)))
	e.RunEpisode(oracle.JudgeFunc())
	if s := h.Snapshot(); s.Count != 1 || s.Min <= 0 {
		t.Fatalf("after RunEpisode: %s = %+v, want one positive observation", obs.CoreEpisodeNS, s)
	}
	e.ApplyEpisode(truthFeedback(e, p.Truth, 4))
	if s := h.Snapshot(); s.Count != 2 || s.Min <= 0 {
		t.Fatalf("after ApplyEpisode: %s = %+v, want two positive observations", obs.CoreEpisodeNS, s)
	}
}
