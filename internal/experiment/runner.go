// Package experiment drives complete ALEX runs over generated scenarios and
// reproduces every table and figure of the paper's evaluation (§7 and the
// appendices). Each experiment has an id (table1, fig2a … fig11, timing); the
// registry in experiments.go maps ids to runners that print the same series
// the paper plots and return the charts drawn from those same runs.
package experiment

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"alex/internal/core"
	"alex/internal/datagen"
	"alex/internal/feedback"
	"alex/internal/linkset"
	"alex/internal/obs"
	"alex/internal/paris"
)

// RunConfig describes one ALEX run.
type RunConfig struct {
	// Spec is the data-set pair to link.
	Spec datagen.PairSpec
	// Core is the engine configuration (zero fields take paper defaults).
	Core core.Config
	// ErrorRate injects incorrect feedback (Appendix C).
	ErrorRate float64
	// Paris configures the baseline linker (zero takes defaults).
	Paris paris.Config
	// Seed drives feedback sampling and error injection.
	Seed int64
	// Obs attaches a metrics registry to the engine: episode counters,
	// candidate gauge and per-episode span traces accumulate there. Nil
	// runs unobserved.
	Obs *obs.Registry
}

// Point is one episode of a quality curve — the unit the paper's figures
// plot.
type Point struct {
	Episode int
	Quality linkset.Quality
	// NegShare is the fraction of this episode's feedback that was
	// negative (Figs 6(b), 10(c)).
	NegShare float64
	// Changed is the snapshot difference driving convergence.
	Changed int
	// Relaxed marks the paper's <5% relaxed convergence condition.
	Relaxed bool
}

// Result is a completed run.
type Result struct {
	Config RunConfig
	// Initial is the quality of the PARIS candidate links (episode 0).
	Initial linkset.Quality
	// Points holds one entry per episode.
	Points []Point
	// ConvergedAt is the episode of strict convergence (0 = never).
	ConvergedAt int
	// RelaxedAt is the first episode meeting the relaxed condition.
	RelaxedAt int
	// NewCorrect is the number of correct links in the final candidate set
	// that were not among the initial PARIS links (the paper's "new links
	// discovered" count).
	NewCorrect int
	// TruthSize is |G|.
	TruthSize int
	// InitialCount is the number of PARIS links.
	InitialCount int
	// Duration covers engine construction through convergence.
	Duration time.Duration
	// SetupDuration covers data generation + PARIS + space construction.
	SetupDuration time.Duration
	// Final is the last point's quality.
	Final linkset.Quality
	// Partitions holds each partition's final outcome (Fig 7(b)/(c)).
	Partitions []PartitionOutcome
}

// PartitionOutcome is one partition's final state, for the per-partition
// analysis of Fig 7(b)/(c).
type PartitionOutcome struct {
	Partition int
	Quality   linkset.Quality
	Episodes  int
	Converged bool
}

// Run executes one complete pipeline: generate the pair, link with PARIS,
// build the ALEX engine, then iterate episodes to convergence, measuring
// quality against the ground truth after each episode.
func Run(cfg RunConfig) *Result {
	if cfg.ErrorRate > 0 {
		// The oracle flips verdicts from one rng, so which verdicts flip
		// depends on the order partitions judge in. Judging them one at a
		// time keeps that order, and the run, fixed by the seed.
		cfg.Core.Workers = 1
	}
	//lint:ignore nodeterminism Duration fields are wall-clock reporting metadata; figure series (Points) stay seed-deterministic.
	setupStart := time.Now()
	pair := datagen.GeneratePair(cfg.Spec)
	scored := paris.Link(pair.DS1, pair.DS2, cfg.Paris)
	init := make([]linkset.Link, len(scored))
	for i, s := range scored {
		init[i] = s.Link
	}
	initSet := linkset.FromLinks(init)

	engine := core.New(pair.DS1, pair.DS2, cfg.Core)
	if cfg.Obs != nil {
		engine.SetObserver(cfg.Obs)
	}
	engine.SetInitialLinks(init)
	setup := time.Since(setupStart) //lint:ignore nodeterminism wall-clock reporting metadata, not figure output

	res := &Result{
		Config:        cfg,
		Initial:       linkset.Evaluate(engine.Candidates(), pair.Truth),
		TruthSize:     pair.Truth.Len(),
		InitialCount:  len(init),
		SetupDuration: setup,
	}

	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	oracle := feedback.NewOracle(pair.Truth, cfg.ErrorRate, rand.New(rand.NewSource(seed)))

	runStart := time.Now() //lint:ignore nodeterminism wall-clock reporting metadata, not figure output
	engine.Run(oracle.JudgeFunc(), func(st core.EpisodeStats) {
		q := linkset.Evaluate(engine.Candidates(), pair.Truth)
		pt := Point{
			Episode:  st.Episode,
			Quality:  q,
			NegShare: st.NegativeShare(),
			Changed:  st.Changed,
			Relaxed:  st.Relaxed,
		}
		res.Points = append(res.Points, pt)
		if st.Relaxed && res.RelaxedAt == 0 {
			res.RelaxedAt = st.Episode
		}
		if st.Converged && res.ConvergedAt == 0 {
			res.ConvergedAt = st.Episode
		}
	})
	res.Duration = time.Since(runStart) //lint:ignore nodeterminism wall-clock reporting metadata, not figure output

	final := engine.Candidates()
	res.Final = linkset.Evaluate(final, pair.Truth)
	for _, l := range final.Links() {
		if pair.Truth.Contains(l) && !initSet.Contains(l) {
			res.NewCorrect++
		}
	}

	// Per-partition outcomes: each partition's candidates are evaluated
	// against the slice of the ground truth whose left entity the
	// partition owns.
	for i := 0; i < engine.Partitions(); i++ {
		cand := linkset.FromSorted(engine.PartitionCandidates(i))
		var owned []linkset.Link
		for _, l := range pair.Truth.Sorted() {
			if pi, ok := engine.PartitionOf(l.Left); ok && pi == i {
				owned = append(owned, l)
			}
		}
		res.Partitions = append(res.Partitions, PartitionOutcome{
			Partition: i,
			Quality:   linkset.Evaluate(cand, linkset.FromSorted(owned)),
			Episodes:  engine.PartitionEpisodes(i),
			Converged: engine.PartitionConverged(i),
		})
	}
	return res
}

// PrintCurve writes the per-episode precision/recall/F series in the shape
// of the paper's quality figures.
func (r *Result) PrintCurve(w io.Writer) {
	fmt.Fprintf(w, "episode %3d: P=%.3f R=%.3f F=%.3f  (initial, %d PARIS links, truth %d)\n",
		0, r.Initial.Precision, r.Initial.Recall, r.Initial.FMeasure, r.InitialCount, r.TruthSize)
	for _, pt := range r.Points {
		marker := ""
		if pt.Episode == r.RelaxedAt {
			marker = "  <- relaxed convergence (<5% change)"
		}
		if pt.Episode == r.ConvergedAt {
			marker += "  <- converged"
		}
		fmt.Fprintf(w, "episode %3d: P=%.3f R=%.3f F=%.3f  neg=%4.1f%%%s\n",
			pt.Episode, pt.Quality.Precision, pt.Quality.Recall, pt.Quality.FMeasure,
			pt.NegShare*100, marker)
	}
	fmt.Fprintf(w, "discovered %d new correct links; converged in %d episodes (%.2fs)\n",
		r.NewCorrect, len(r.Points), r.Duration.Seconds())
}
