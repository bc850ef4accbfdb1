package core

import (
	"math/rand"
	"runtime"
	"testing"

	"alex/internal/feedback"
	"alex/internal/linkset"
)

// runToEpisodes drives a fixed seed for a fixed number of episodes at the
// given worker count and returns the per-episode stats and final links.
func runToEpisodes(workers, episodes int) ([]EpisodeStats, []linkset.Link) {
	p := testPair(11)
	cfg := smallConfig(11)
	cfg.Workers = workers
	e := New(p.DS1, p.DS2, cfg)
	e.SetInitialLinks(initialLinks(p))
	oracle := feedback.NewOracle(p.Truth, 0, rand.New(rand.NewSource(11)))
	var stats []EpisodeStats
	for i := 0; i < episodes; i++ {
		stats = append(stats, e.RunEpisode(oracle.JudgeFunc()))
	}
	return stats, e.Candidates().Links()
}

// TestEngineWorkerCountInvariance is the parallel-exploration determinism
// contract: for a fixed seed, the per-episode stats and the final candidate
// set are identical whether the engine runs serially or on a parallel pool.
func TestEngineWorkerCountInvariance(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	const episodes = 4
	serialStats, serialLinks := runToEpisodes(1, episodes)
	parallelStats, parallelLinks := runToEpisodes(4, episodes)
	for i := range serialStats {
		if serialStats[i] != parallelStats[i] {
			t.Errorf("episode %d stats differ:\n workers=1: %+v\n workers=4: %+v",
				i+1, serialStats[i], parallelStats[i])
		}
	}
	if len(serialLinks) != len(parallelLinks) {
		t.Fatalf("final link counts differ: %d vs %d", len(serialLinks), len(parallelLinks))
	}
	for i := range serialLinks {
		if serialLinks[i] != parallelLinks[i] {
			t.Fatalf("final link %d differs: %v vs %v", i, serialLinks[i], parallelLinks[i])
		}
	}
}

// TestEngineApplyEpisodeWorkerInvariance covers the interactive path: the
// same explicit feedback batch produces the same stats and candidate set at
// any worker count.
func TestEngineApplyEpisodeWorkerInvariance(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	run := func(workers int) (EpisodeStats, []linkset.Link) {
		p := testPair(17)
		cfg := smallConfig(17)
		cfg.Workers = workers
		e := New(p.DS1, p.DS2, cfg)
		e.SetInitialLinks(initialLinks(p))
		var items []Feedback
		for _, l := range e.Candidates().Links() {
			items = append(items, Feedback{Link: l, Approved: p.Truth.Contains(l)})
		}
		st := e.ApplyEpisode(items)
		return st, e.Candidates().Links()
	}
	serialStats, serialLinks := run(1)
	parallelStats, parallelLinks := run(4)
	if serialStats != parallelStats {
		t.Errorf("stats differ:\n workers=1: %+v\n workers=4: %+v", serialStats, parallelStats)
	}
	if len(serialLinks) != len(parallelLinks) {
		t.Fatalf("link counts differ: %d vs %d", len(serialLinks), len(parallelLinks))
	}
	for i := range serialLinks {
		if serialLinks[i] != parallelLinks[i] {
			t.Fatalf("link %d differs: %v vs %v", i, serialLinks[i], parallelLinks[i])
		}
	}
}
