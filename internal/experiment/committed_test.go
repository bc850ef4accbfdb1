package experiment

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// figuresDir holds the committed SVG figures, rendered at Options{} (scale
// 1, seed 42).
var figuresDir = filepath.Join("..", "..", "figures")

// Wall-clock fields vary run to run; everything else in a report is fixed
// by the seed.
var wallClock = []struct {
	re   *regexp.Regexp
	repl string
}{
	// PrintCurve's "converged in N episodes (0.12s)".
	{regexp.MustCompile(`\(\d+\.\d+s\)`), "(*s)"},
	// The timing report's setup=, run= and per-episode= fields.
	{regexp.MustCompile(`(setup|run|per-episode)=\s*\S+`), "$1=*"},
	// Fig 10's trailing time(s) column.
	{regexp.MustCompile(`(?m)^(\d+\.\d\d +(?:\S+ +){5})\d+\.\d+ *$`), "${1}*"},
}

func maskWallClock(report []byte) []byte {
	for _, m := range wallClock {
		report = m.re.ReplaceAll(report, []byte(m.repl))
	}
	return report
}

// checkCommitted compares got against the file at path, rewriting it under
// -update.
func checkCommitted(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v; regenerate with `make figures`", err)
	}
	if !bytes.Equal(want, got) {
		t.Errorf("%s no longer matches the experiment's output; if the change is intentional, regenerate with `make figures`", path)
	}
}

// TestCommittedFigures reproduces the committed evaluation: every
// registered experiment runs at the default options, its text report
// (wall-clock fields masked) must equal testdata/golden/reports/<id>.txt,
// each figure it renders must equal figures/<name>, and every file in
// figures/ must be rendered by some experiment.
func TestCommittedFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment at scale 1")
	}
	rendered := map[string]bool{}
	for _, e := range Experiments {
		var buf bytes.Buffer
		charts := e.Run(&buf, Options{})
		checkCommitted(t, filepath.Join("testdata", "golden", "reports", e.ID+".txt"), maskWallClock(buf.Bytes()))
		for name, c := range charts {
			rendered[name] = true
			checkCommitted(t, filepath.Join(figuresDir, name), []byte(c.SVG()))
		}
	}
	files, err := os.ReadDir(figuresDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if !rendered[f.Name()] {
			t.Errorf("figures/%s is rendered by no experiment; remove it or regenerate with `make figures`", f.Name())
		}
	}
}
