package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"alex/internal/datagen"
	"alex/internal/rdf"
)

// writePair writes a small generated DBpedia/NYTimes pair and its ground
// truth into dir as N-Triples and returns the three paths.
func writePair(t *testing.T, dir string) (left, right, truth string) {
	t.Helper()
	pair := datagen.GeneratePair(datagen.NBADBpediaNYTimes(0.3, 5))
	var links []rdf.Triple
	for _, l := range pair.Truth.Links() {
		links = append(links, rdf.Triple{S: pair.Dict.Term(l.Left), P: rdf.NewIRI(rdf.OWLSameAs), O: pair.Dict.Term(l.Right)})
	}
	write := func(name string, triples []rdf.Triple) string {
		var buf bytes.Buffer
		w := rdf.NewWriter(&buf)
		for _, tr := range triples {
			if err := w.Write(tr); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	all := rdf.Term{}
	return write("left.nt", pair.DS1.MatchTerms(all, all, all)),
		write("right.nt", pair.DS2.MatchTerms(all, all, all)),
		write("truth.nt", links)
}

// alexlink runs the command in-process and returns its exit code and
// stderr, where it reports its progress.
func alexlink(args ...string) (int, string) {
	var stdout, stderr strings.Builder
	code := run(append([]string{"-partitions", "2", "-episode-size", "20", "-episodes", "3"}, args...), &stdout, &stderr)
	return code, stderr.String()
}

// TestStateRestoredOnSecondRun: a run with -truth and -state saves its
// checkpoint, writes its links to -out, and the next run over the same
// data restores exactly those links.
func TestStateRestoredOnSecondRun(t *testing.T) {
	dir := t.TempDir()
	left, right, truth := writePair(t, dir)
	state, out := filepath.Join(dir, "alex.state"), filepath.Join(dir, "links.nt")
	args := []string{"-left", left, "-right", right, "-truth", truth, "-state", state, "-out", out}

	code, log := alexlink(args...)
	if code != 0 {
		t.Fatalf("first run: exit %d\n%s", code, log)
	}
	if strings.Contains(log, "restored state") || !strings.Contains(log, "episode   1:") || !strings.Contains(log, "saved state to "+state) {
		t.Fatalf("first run should start fresh, run episodes and save:\n%s", log)
	}
	wrote := regexp.MustCompile(`wrote (\d+) links`).FindStringSubmatch(log)
	if wrote == nil {
		t.Fatalf("first run reports no link count:\n%s", log)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(string(data), "\n"); wrote[1] == "0" || strconv.Itoa(got) != wrote[1] {
		t.Fatalf("-out holds %d links, the run reports %s", got, wrote[1])
	}

	code, log = alexlink(args...)
	if code != 0 {
		t.Fatalf("second run: exit %d\n%s", code, log)
	}
	if want := "restored state from " + state + " (" + wrote[1] + " links)"; !strings.Contains(log, want) {
		t.Errorf("second run does not report %q:\n%s", want, log)
	}
}

// TestUnreadableStateFailsEarly: only a missing -state file means "start
// fresh". Any other error opening it fails the run before an episode runs
// or a file is written.
func TestUnreadableStateFailsEarly(t *testing.T) {
	dir := t.TempDir()
	left, right, truth := writePair(t, dir)
	out := filepath.Join(dir, "links.nt")
	code, log := alexlink("-left", left, "-right", right, "-truth", truth,
		"-state", filepath.Join(left, "alex.state"), "-out", out) // under a regular file: ENOTDIR
	if code != 1 || !strings.Contains(log, "not a directory") {
		t.Fatalf("exit %d, want 1 with ENOTDIR:\n%s", code, log)
	}
	if strings.Contains(log, "episode") {
		t.Errorf("episodes ran before the failure:\n%s", log)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("-out was written: %v", err)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{{}, {"-left", "a.nt"}, {"-bogus"}} {
		var stdout, stderr strings.Builder
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}
