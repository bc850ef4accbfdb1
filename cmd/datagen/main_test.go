package main

import (
	"path/filepath"
	"strings"
	"testing"

	"alex/internal/datagen"
	"alex/internal/linkset"
	"alex/internal/rdf"
	"alex/internal/store"
)

// TestFilesReadBack writes a scenario in both formats and reads each file
// back with the loaders the other commands use: every generated triple and
// link must come back, through the Turtle prefixes datagen derives too.
func TestFilesReadBack(t *testing.T) {
	pair := datagen.GeneratePair(datagen.NBADBpediaNYTimes(0.3, 11))
	for _, format := range []string{"nt", "ttl"} {
		dir := t.TempDir()
		var stdout, stderr strings.Builder
		args := []string{"-scenario", "nba-dbpedia-nytimes", "-scale", "0.3", "-seed", "11", "-format", format, "-out", dir}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%s: exit %d\n%s", format, code, stderr.String())
		}
		dict := rdf.NewDict()
		for _, want := range []*store.Store{pair.DS1, pair.DS2} {
			got, err := store.NewFromFile(dict, filepath.Join(dir, fileNameExt(want, format)), store.LoadOptions{})
			if err != nil {
				t.Fatalf("%s: %v", format, err)
			}
			if got.Len() != want.Len() {
				t.Errorf("%s: %s holds %d triples, generated %d", format, got.Name(), got.Len(), want.Len())
			}
			all := rdf.Term{}
			for _, tr := range want.MatchTerms(all, all, all) {
				if !got.Contains(tr) {
					t.Errorf("%s: %s lost %v", format, got.Name(), tr)
					break
				}
			}
		}
		truth, err := linkset.LoadSameAs(dict, filepath.Join(dir, "truth.nt"))
		if err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		if truth.Len() != pair.Truth.Len() {
			t.Errorf("%s: truth.nt holds %d links, generated %d", format, truth.Len(), pair.Truth.Len())
		}
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{{}, {"-scenario", "nope"}, {"-scenario", "dbpedia-nytimes", "-format", "xml"}, {"-bogus"}} {
		var stdout, stderr strings.Builder
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
	var stdout, stderr strings.Builder
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 || !strings.Contains(stdout.String(), "nba-dbpedia-nytimes") {
		t.Errorf("-list: exit %d\n%s", code, stdout.String())
	}
	if code := run([]string{"-scenario", "dbpedia-nytimes", "-scale", "0.1", "-out", filepath.Join(t.TempDir(), "missing")}, &stdout, &stderr); code != 1 {
		t.Errorf("unwritable -out: exit %d, want 1", code)
	}
}
