package main

import (
	"os"
	"strings"
	"testing"

	"alex/internal/experiment"
)

// svgFiles runs alex with args plus -svg into a fresh directory and
// returns the names of the files written there.
func svgFiles(t *testing.T, args ...string) []string {
	t.Helper()
	dir := t.TempDir()
	var stdout, stderr strings.Builder
	if code := run(append(args, "-svg", dir), &stdout, &stderr); code != 0 {
		t.Fatalf("%v: exit %d\n%s", args, code, stderr.String())
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

func TestSVGWritesTheExperimentsCharts(t *testing.T) {
	if got := svgFiles(t, "-exp", "fig7", "-scale", "0.2"); len(got) != 1 || got[0] != "fig7a.svg" {
		t.Errorf("fig7 wrote %v, want [fig7a.svg]", got)
	}
	if got := svgFiles(t, "-exp", "table1", "-scale", "0.2"); len(got) != 0 {
		t.Errorf("table1 wrote %v, want nothing", got)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{{"-exp", "nope"}, {}, {"-bogus"}} {
		var stdout, stderr strings.Builder
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
	var stdout, stderr strings.Builder
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 || !strings.Contains(stdout.String(), "fig9") {
		t.Errorf("-list: exit %d\n%s", code, stdout.String())
	}
}

// TestAllPrintsEveryExperiment: -exp all runs the whole registry, one
// "== " report header per experiment, each report followed by a blank line.
func TestAllPrintsEveryExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	var stdout, stderr strings.Builder
	if code := run([]string{"-exp", "all", "-scale", "0.15", "-seed", "13"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	out := stdout.String()
	if n := strings.Count("\n"+out, "\n== "); n != len(experiment.Experiments) {
		t.Errorf("%d report headers, want %d", n, len(experiment.Experiments))
	}
	if n := strings.Count(out+"== ", "\n\n== "); n != len(experiment.Experiments) {
		t.Errorf("%d reports end in a blank line, want all %d", n, len(experiment.Experiments))
	}
}
