package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"alex/internal/core"
	"alex/internal/datagen"
	"alex/internal/feedback"
	"alex/internal/linkset"
	"alex/internal/obs"
	"alex/internal/paris"
)

const (
	linkParts = 8
	// linkDataSeed is the seed of the first link_batch data set. The data
	// sets are the same in every run — feature.Build's cost varies ±20 %
	// from one generated pair to the next, which would drown a 5 % bound —
	// and -seed decides their order and the engine's and oracle's draws.
	linkDataSeed = 1000
)

// linkBatch is the link_batch workload, the paper's §7.3 batch
// experiment as cmd/alexlink runs it with a -truth file: PARIS seeds the
// links, core.New builds the feature spaces, Engine.Run iterates episodes
// against a perfect oracle until the candidate set converges. No HTTP.
type linkBatch struct {
	e     *env
	order [][]int64 // [round][op] → data seed
	round int
	pairs []*datagen.Pair // the current round's data sets, one per op
	reg   *obs.Registry
}

func (w *linkBatch) prepare(e *env) error {
	w.e = e
	rng := rand.New(rand.NewSource(e.seed))
	// The timed ops are the same data sets in every run, in a seeded
	// order; the warm-up ops use others, so which sets are timed never
	// depends on the seed.
	timed, warm := e.sz.rounds*e.sz.opsPerRound, e.sz.warm()
	perm := rng.Perm(timed)
	w.order = make([][]int64, e.sz.rounds)
	for r := range w.order {
		for j := 0; j < warm; j++ {
			w.order[r] = append(w.order[r], linkDataSeed+int64(timed+r*warm+j))
		}
		for _, s := range perm[r*e.sz.opsPerRound : (r+1)*e.sz.opsPerRound] {
			w.order[r] = append(w.order[r], linkDataSeed+int64(s))
		}
	}
	return nil
}

func (w *linkBatch) schedule() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "seed %d\n", w.e.seed)
	for r, seeds := range w.order {
		fmt.Fprintf(&b, "round %d %v\n", r, seeds)
	}
	return b.Bytes()
}

// setup generates the round's data sets, which is the harness's work:
// a batch run has no stack to assemble before its first op, since building
// the engine is the op itself, so link_batch's setup_s is its warm-up run.
func (w *linkBatch) setup(round int, reg *obs.Registry) error {
	w.round, w.reg = round, reg
	w.pairs = w.pairs[:0]
	return w.e.untimed(func() error {
		t0 := time.Now()
		for _, s := range w.order[round] {
			w.pairs = append(w.pairs, datagen.GeneratePair(datagen.DBpediaNYTimes(w.e.sz.scale, s)))
		}
		if reg != nil {
			w.e.tr.sample("datagen.generate_s", time.Since(t0).Seconds())
		}
		return nil
	})
}

func (w *linkBatch) goldens() error   { return nil } // do checks each run's own invariants
func (w *linkBatch) endpoint() string { return "" }

// replay builds one partition's feature space alone, outside the timed ops.
func (w *linkBatch) replay(int) {
	pair := w.pairs[w.e.sz.warm()]
	cfg := core.Defaults()
	cfg.Partitions = linkParts
	sampleFeatureBuild(w.e.tr, pair.DS1, pair.DS2, cfg)
}

// do is one complete batch run. It is correct when the run converged
// within the episode cap and left the links no worse than PARIS did.
func (w *linkBatch) do(_ *client, i int) bool {
	pair := w.pairs[i]
	tr := w.e.tr
	traced := w.reg != nil
	op := w.round*1_000_000 + i
	root := 0
	if traced {
		root = tr.open(0, op, "op")
		defer tr.close(root)
	}
	timed := func(name string, fn func()) {
		if traced {
			tr.stage(root, op, name, fn)
		} else {
			fn()
		}
	}

	var scored []linkset.Scored
	timed("paris.link", func() { scored = paris.Link(pair.DS1, pair.DS2, paris.DefaultConfig()) })
	cfg := core.Defaults()
	cfg.Partitions = linkParts
	cfg.Workers = runtime.GOMAXPROCS(0)
	cfg.Seed = w.e.seed + w.order[w.round][i]
	var engine *core.Engine
	timed("core.new", func() { engine = core.New(pair.DS1, pair.DS2, cfg) })
	if traced {
		engine.SetObserver(w.reg)
	}
	initial := make([]linkset.Link, len(scored))
	for j, s := range scored {
		initial[j] = s.Link
	}
	engine.SetInitialLinks(initial)
	before := linkset.Evaluate(engine.Candidates(), pair.Truth)

	oracle := feedback.NewOracle(pair.Truth, 0, rand.New(rand.NewSource(cfg.Seed)))
	judge := core.SerialJudge(oracle.JudgeFunc())
	last := time.Now()
	episodes := engine.Run(judge, func(core.EpisodeStats) {
		if traced {
			now := time.Now()
			tr.record(root, op, "core.episode", last, now)
			last = now
		}
	})
	after := linkset.Evaluate(engine.Candidates(), pair.Truth)
	if i >= w.e.sz.warm() {
		w.e.quality.add(after, 0)
		if traced {
			tr.sample("core.episodes_to_converge", float64(len(episodes)))
		}
	}
	return engine.Converged() && len(episodes) < cfg.MaxEpisodes && after.FMeasure >= before.FMeasure
}

func (w *linkBatch) teardown(int) error { return nil }
