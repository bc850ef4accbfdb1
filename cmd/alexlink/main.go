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
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"alex/internal/core"
	"alex/internal/feedback"
	"alex/internal/linkset"
	"alex/internal/paris"
	"alex/internal/rdf"
	"alex/internal/store"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with injectable args and streams, so tests can drive the
// whole command in-process. It returns the exit code: 2 for a usage error,
// 1 for a load or I/O error.
func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("alexlink", flag.ContinueOnError)
	flags.SetOutput(stderr)
	var (
		left     = flags.String("left", "", "first (larger) data set, N-Triples or Turtle")
		right    = flags.String("right", "", "second data set")
		truthF   = flags.String("truth", "", "ground-truth owl:sameAs file (enables feedback simulation)")
		out      = flags.String("out", "", "output owl:sameAs N-Triples file (default stdout)")
		stateF   = flags.String("state", "", "checkpoint file: loaded if present, saved after the run")
		report   = flags.Bool("report", false, "print the learned feature-distinctiveness table")
		episodes = flags.Int("episodes", 0, "max episodes (default: run to convergence, cap 100)")
		episode  = flags.Int("episode-size", 100, "feedback items per episode")
		parts    = flags.Int("partitions", 8, "search-space partitions")
		seed     = flags.Int64("seed", 1, "random seed")
		thresh   = flags.Float64("paris-threshold", 0.95, "PARIS score threshold for seed links")
		mutual   = flags.Bool("mutual-best", false, "keep only mutual-best PARIS seed links (1:1 filter)")
	)
	if err := flags.Parse(args); err != nil {
		return 2
	}
	if *left == "" || *right == "" {
		fmt.Fprintln(stderr, "usage: alexlink -left <file> -right <file> [-truth <file>] [-out <file>]")
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "alexlink:", err)
		return 1
	}

	dict := rdf.NewDict()
	ds1, err := store.NewFromFile(dict, *left, store.LoadOptions{})
	if err != nil {
		return fail(err)
	}
	ds2, err := store.NewFromFile(dict, *right, store.LoadOptions{})
	if err != nil {
		return fail(err)
	}
	fmt.Fprintln(stderr, "loaded", ds1.Stats())
	fmt.Fprintln(stderr, "loaded", ds2.Stats())

	pcfg := paris.DefaultConfig()
	pcfg.Threshold = *thresh
	scored := paris.Link(ds1, ds2, pcfg)
	fmt.Fprintf(stderr, "PARIS: %d candidate links (threshold %.2f)\n", len(scored), *thresh)
	if *mutual {
		scored = linkset.MutualBest(scored)
		fmt.Fprintf(stderr, "mutual-best filter: %d links remain\n", len(scored))
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
		// Only a missing checkpoint means "start fresh".
		f, err := os.Open(*stateF)
		switch {
		case errors.Is(err, os.ErrNotExist):
		case err != nil:
			return fail(err)
		default:
			if err := errors.Join(engine.LoadState(f), f.Close()); err != nil {
				return fail(err)
			}
			fmt.Fprintf(stderr, "restored state from %s (%d links)\n", *stateF, engine.Candidates().Len())
		}
	}

	if *truthF != "" {
		truth, err := linkset.LoadSameAs(dict, *truthF)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "truth: %d links; running feedback episodes\n", truth.Len())
		oracle := feedback.NewOracle(truth, 0, rand.New(rand.NewSource(*seed)))
		engine.Run(oracle.JudgeFunc(), func(st core.EpisodeStats) {
			q := linkset.Evaluate(engine.Candidates(), truth)
			fmt.Fprintf(stderr, "episode %3d: P=%.3f R=%.3f F=%.3f (%d candidates)\n",
				st.Episode, q.Precision, q.Recall, q.FMeasure, st.Candidates)
		})
	} else {
		fmt.Fprintln(stderr, "no -truth file: emitting PARIS links unrefined (provide feedback via the library API)")
	}

	if *stateF != "" {
		if err := saveState(*stateF, engine.SaveState); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "saved state to %s\n", *stateF)
	}

	if *report {
		fmt.Fprintln(stderr, "\nlearned feature distinctiveness:")
		for i := 0; i < engine.Partitions(); i++ {
			for _, fq := range engine.FeatureReport(i, 3) {
				fmt.Fprintf(stderr, "  p%d: %s\n", i, fq)
			}
		}
	}

	links := engine.Candidates()
	writeLinks := func(w io.Writer) error {
		writer := rdf.NewWriter(w)
		sameAs := rdf.NewIRI(rdf.OWLSameAs)
		for _, l := range links.Links() {
			if err := writer.Write(rdf.Triple{S: dict.Term(l.Left), P: sameAs, O: dict.Term(l.Right)}); err != nil {
				return err
			}
		}
		return writer.Flush()
	}
	if *out == "" {
		err = writeLinks(stdout)
	} else {
		err = writeFile(*out, writeLinks)
	}
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stderr, "wrote %d links\n", links.Len())
	return 0
}

// saveState replaces the -state checkpoint: a failed save leaves the old.
var saveState = store.WriteFile

// writeFile creates path and fills it with write. The file's Close error
// counts: a checkpoint or link file is only written once it is closed.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	return errors.Join(write(f), f.Close())
}
