// Command datagen materializes one of the synthetic linked-data scenarios
// as N-Triples files plus a ground-truth sameAs link file, so the data the
// experiments run on can be inspected, diffed or loaded into other tools
// (including cmd/fedsparql).
//
// Usage:
//
//	datagen -list
//	datagen -scenario dbpedia-nytimes -out /tmp/data
//	datagen -scenario nba-dbpedia-nytimes -scale 0.5 -seed 7 -out .
//
// Three files are written to -out: <ds1>.nt, <ds2>.nt and truth.nt (the
// ground-truth owl:sameAs statements).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"alex/internal/datagen"
	"alex/internal/rdf"
	"alex/internal/store"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with injectable args and streams, so tests can drive the
// whole command in-process. It returns the exit code: 2 for a usage error,
// 1 for an I/O error.
func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("datagen", flag.ContinueOnError)
	flags.SetOutput(stderr)
	var (
		scenario = flags.String("scenario", "", "scenario id (see -list)")
		list     = flags.Bool("list", false, "list scenarios")
		scale    = flags.Float64("scale", 1, "data-set size multiplier")
		seed     = flags.Int64("seed", 42, "random seed")
		out      = flags.String("out", ".", "output directory")
		format   = flags.String("format", "nt", "output format: nt (N-Triples) or ttl (Turtle)")
	)
	if err := flags.Parse(args); err != nil {
		return 2
	}

	if *list || *scenario == "" {
		fmt.Fprintln(stdout, "scenarios:")
		for _, s := range datagen.Scenarios {
			fmt.Fprintf(stdout, "  %-22s %s\n", s.ID, s.Desc)
		}
		if *scenario == "" && !*list {
			fmt.Fprintln(stderr, "\nusage: datagen -scenario <id> [-out dir]")
			return 2
		}
		return 0
	}

	sc, ok := datagen.ScenarioByID(*scenario)
	if !ok {
		fmt.Fprintf(stderr, "datagen: unknown scenario %q (try -list)\n", *scenario)
		return 2
	}
	if *format != "nt" && *format != "ttl" {
		fmt.Fprintf(stderr, "datagen: unknown format %q\n", *format)
		return 2
	}
	pair := datagen.GeneratePair(sc.Spec(*scale, *seed))
	err := writeStore(*out, pair.DS1, *format)
	if err == nil {
		err = writeStore(*out, pair.DS2, *format)
	}
	if err == nil {
		err = writeTruth(*out, pair)
	}
	if err != nil {
		fmt.Fprintln(stderr, "datagen:", err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote %s (%d triples), %s (%d triples), truth.nt (%d links) to %s\n",
		fileNameExt(pair.DS1, *format), pair.DS1.Len(), fileNameExt(pair.DS2, *format), pair.DS2.Len(),
		pair.Truth.Len(), *out)
	return 0
}

func fileNameExt(s *store.Store, ext string) string {
	return strings.ToLower(strings.ReplaceAll(s.Name(), " ", "_")) + "." + ext
}

// writeFile creates path and fills it with write. The file's Close error
// counts: a data file is only written once it is closed.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	return errors.Join(write(f), f.Close())
}

func writeStore(dir string, s *store.Store, format string) error {
	return writeFile(filepath.Join(dir, fileNameExt(s, format)), func(f io.Writer) error {
		triples := s.MatchTerms(rdf.Term{}, rdf.Term{}, rdf.Term{})
		if format == "ttl" {
			return rdf.NewTurtleWriter(f, turtlePrefixes(s)).WriteAll(triples)
		}
		w := rdf.NewWriter(f)
		for _, t := range triples {
			if err := w.Write(t); err != nil {
				return err
			}
		}
		return w.Flush()
	})
}

// turtlePrefixes derives prefix declarations from the most common IRI
// namespaces in the store (split at the last '/' or '#').
func turtlePrefixes(s *store.Store) map[string]string {
	counts := map[string]int{}
	note := func(t rdf.Term) {
		if !t.IsIRI() {
			return
		}
		v := t.Value
		cut := strings.LastIndexByte(v, '/')
		if h := strings.LastIndexByte(v, '#'); h > cut {
			cut = h
		}
		if cut > 8 { // past "https://"
			counts[v[:cut+1]]++
		}
	}
	for _, tid := range s.Match(rdf.NoTerm, rdf.NoTerm, rdf.NoTerm) {
		t := s.Dict().Materialize(tid)
		note(t.S)
		note(t.P)
		note(t.O)
	}
	type nsCount struct {
		ns string
		n  int
	}
	var all []nsCount
	for ns, n := range counts {
		all = append(all, nsCount{ns, n})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].n != all[j].n {
			return all[i].n > all[j].n
		}
		return all[i].ns < all[j].ns
	})
	out := map[string]string{}
	for i, nc := range all {
		if i == 8 {
			break
		}
		out[fmt.Sprintf("ns%d", i+1)] = nc.ns
	}
	return out
}

func writeTruth(dir string, pair *datagen.Pair) error {
	return writeFile(filepath.Join(dir, "truth.nt"), func(f io.Writer) error {
		w := rdf.NewWriter(f)
		sameAs := rdf.NewIRI(rdf.OWLSameAs)
		for _, l := range pair.Truth.Links() {
			t := rdf.Triple{S: pair.Dict.Term(l.Left), P: sameAs, O: pair.Dict.Term(l.Right)}
			if err := w.Write(t); err != nil {
				return err
			}
		}
		return w.Flush()
	})
}
