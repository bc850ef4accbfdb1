// Command alexlink links two RDF data sets end-to-end: PARIS produces the
// initial owl:sameAs candidates, then ALEX refines them from feedback. With
// a -truth file the feedback is simulated from ground truth (the paper's
// evaluation protocol) and quality is reported per episode; without one,
// links are printed for external review. The improved link set is written
// as owl:sameAs N-Triples.
//
// Usage:
//
//	alexlink -left dbpedia.nt -right nytimes.nt -truth truth.nt -out links.nt
//	alexlink -left a.ttl -right b.ttl -out links.nt            (PARIS only)
//	alexlink ... -state alex.state                             (checkpoint)
//	alexlink ... -report                                       (learned features)
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"alex/internal/core"
	"alex/internal/feedback"
	"alex/internal/linkset"
	"alex/internal/paris"
	"alex/internal/rdf"
	"alex/internal/store"
)

func main() {
	var (
		left     = flag.String("left", "", "first (larger) data set, N-Triples or Turtle")
		right    = flag.String("right", "", "second data set")
		truthF   = flag.String("truth", "", "ground-truth owl:sameAs file (enables feedback simulation)")
		out      = flag.String("out", "", "output owl:sameAs N-Triples file (default stdout)")
		stateF   = flag.String("state", "", "checkpoint file: loaded if present, saved after the run")
		report   = flag.Bool("report", false, "print the learned feature-distinctiveness table")
		episodes = flag.Int("episodes", 0, "max episodes (default: run to convergence, cap 100)")
		episode  = flag.Int("episode-size", 100, "feedback items per episode")
		parts    = flag.Int("partitions", 8, "search-space partitions")
		seed     = flag.Int64("seed", 1, "random seed")
		thresh   = flag.Float64("paris-threshold", 0.95, "PARIS score threshold for seed links")
		mutual   = flag.Bool("mutual-best", false, "keep only mutual-best PARIS seed links (1:1 filter)")
	)
	flag.Parse()
	if *left == "" || *right == "" {
		fmt.Fprintln(os.Stderr, "usage: alexlink -left <file> -right <file> [-truth <file>] [-out <file>]")
		os.Exit(2)
	}

	dict := rdf.NewDict()
	ds1, err := store.NewFromFile(dict, *left, store.LoadOptions{})
	if err != nil {
		fatal(err)
	}
	ds2, err := store.NewFromFile(dict, *right, store.LoadOptions{})
	if err != nil {
		fatal(err)
	}
	fmt.Fprintln(os.Stderr, "loaded", ds1.Stats())
	fmt.Fprintln(os.Stderr, "loaded", ds2.Stats())

	pcfg := paris.DefaultConfig()
	pcfg.Threshold = *thresh
	scored := paris.Link(ds1, ds2, pcfg)
	fmt.Fprintf(os.Stderr, "PARIS: %d candidate links (threshold %.2f)\n", len(scored), *thresh)
	if *mutual {
		scored = linkset.MutualBest(scored)
		fmt.Fprintf(os.Stderr, "mutual-best filter: %d links remain\n", len(scored))
	}

	cfg := core.Defaults()
	cfg.EpisodeSize = *episode
	cfg.Partitions = *parts
	cfg.Seed = *seed
	if *episodes > 0 {
		cfg.MaxEpisodes = *episodes
	}
	engine := core.New(ds1, ds2, cfg)
	init := make([]linkset.Link, len(scored))
	for i, s := range scored {
		init[i] = s.Link
	}
	engine.SetInitialLinks(init)

	if *stateF != "" {
		if f, err := os.Open(*stateF); err == nil {
			if err := engine.LoadState(f); err != nil {
				fatal(err)
			}
			f.Close()
			fmt.Fprintf(os.Stderr, "restored state from %s (%d links)\n", *stateF, engine.Candidates().Len())
		}
	}

	if *truthF != "" {
		truth, err := linkset.LoadSameAs(dict, *truthF)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "truth: %d links; running feedback episodes\n", truth.Len())
		oracle := feedback.NewOracle(truth, 0, rand.New(rand.NewSource(*seed)))
		engine.Run(oracle.JudgeFunc(), func(st core.EpisodeStats) {
			q := linkset.Evaluate(engine.Candidates(), truth)
			fmt.Fprintf(os.Stderr, "episode %3d: P=%.3f R=%.3f F=%.3f (%d candidates)\n",
				st.Episode, q.Precision, q.Recall, q.FMeasure, st.Candidates)
		})
	} else {
		fmt.Fprintln(os.Stderr, "no -truth file: emitting PARIS links unrefined (provide feedback via the library API)")
	}

	if *stateF != "" {
		f, err := os.Create(*stateF)
		if err != nil {
			fatal(err)
		}
		if err := engine.SaveState(f); err != nil {
			fatal(err)
		}
		f.Close()
		fmt.Fprintf(os.Stderr, "saved state to %s\n", *stateF)
	}

	if *report {
		fmt.Fprintln(os.Stderr, "\nlearned feature distinctiveness:")
		for i := 0; i < engine.Partitions(); i++ {
			for _, fq := range engine.FeatureReport(i, 3) {
				fmt.Fprintf(os.Stderr, "  p%d: %s\n", i, fq)
			}
		}
	}

	links := engine.Candidates()

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	writer := rdf.NewWriter(w)
	sameAs := rdf.NewIRI(rdf.OWLSameAs)
	for _, l := range links.Links() {
		t := rdf.Triple{S: dict.Term(l.Left), P: sameAs, O: dict.Term(l.Right)}
		if err := writer.Write(t); err != nil {
			fatal(err)
		}
	}
	if err := writer.Flush(); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %d links\n", links.Len())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "alexlink:", err)
	os.Exit(1)
}
