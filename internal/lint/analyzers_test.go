package lint

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// loadFixture loads one tree under testdata/src as module "fix". GoListDir
// points at this package's directory (inside the real module) so stdlib
// imports of the fixture resolve through `go list` export data.
func loadFixture(t *testing.T, name string) *Program {
	t.Helper()
	prog, err := Load(Config{
		Dir:        filepath.Join("testdata", "src", name),
		ModulePath: "fix",
		GoListDir:  ".",
	})
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	return prog
}

// want is one expectation parsed from a `// want `regex“ comment: a
// diagnostic on that line whose message matches the regex.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// collectWants parses the `// want `regex“ annotations of every fixture
// file. The comment sits on the line the diagnostic must be reported on.
func collectWants(t *testing.T, prog *Program) map[string]*want {
	t.Helper()
	wants := make(map[string]*want)
	for _, pkg := range prog.Packages {
		for _, file := range pkg.Files {
			for _, group := range file.Comments {
				for _, c := range group.List {
					idx := strings.Index(c.Text, "want `")
					if idx < 0 {
						continue
					}
					rest := c.Text[idx+len("want `"):]
					end := strings.LastIndex(rest, "`")
					if end < 0 {
						t.Fatalf("%s: unterminated want annotation %q", prog.Fset.Position(c.Pos()), c.Text)
					}
					re, err := regexp.Compile(rest[:end])
					if err != nil {
						t.Fatalf("%s: bad want regexp: %v", prog.Fset.Position(c.Pos()), err)
					}
					pos := prog.Fset.Position(c.Pos())
					key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
					if wants[key] != nil {
						t.Fatalf("%s: multiple want annotations on one line", key)
					}
					wants[key] = &want{file: pos.Filename, line: pos.Line, re: re}
				}
			}
		}
	}
	return wants
}

// runFixture runs the analyzers over the named fixture and checks the
// diagnostics against its want annotations: every diagnostic must match a
// want on its line, and every want must be hit.
func runFixture(t *testing.T, name string, analyzers ...Analyzer) {
	t.Helper()
	prog := loadFixture(t, name)
	wants := collectWants(t, prog)
	for _, d := range Run(prog, analyzers) {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		w := wants[key]
		switch {
		case w == nil:
			t.Errorf("unexpected diagnostic: %s", d)
		case !w.re.MatchString(d.Message):
			t.Errorf("%s: message %q does not match want %q", key, d.Message, w.re)
		case w.matched:
			t.Errorf("%s: multiple diagnostics for one want annotation", key)
		default:
			w.matched = true
		}
	}
	for key, w := range wants {
		if !w.matched {
			t.Errorf("%s: want %q: no diagnostic reported", key, w.re)
		}
	}
}

func TestObsNames(t *testing.T) {
	runFixture(t, "obsnames", &ObsNames{ObsPath: "fix/obs"})
}

func TestCtxFlow(t *testing.T) {
	runFixture(t, "ctxflow", &CtxFlow{})
}

func TestCtxFlowAllowList(t *testing.T) {
	// With every root-context site allow-listed, only the dropped-context
	// diagnostics remain.
	prog := loadFixture(t, "ctxflow")
	diags := Run(prog, []Analyzer{&CtxFlow{Allow: []string{
		"fix/use.fresh",
		"fix/use.todo",
		"fix/use.mintsInsideOtherCall",
	}}})
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics with allow list, want 2 (the dropped-ctx pair):\n%v", len(diags), diags)
	}
	for _, d := range diags {
		if !strings.Contains(d.Message, "drops the caller's ctx") {
			t.Errorf("unexpected diagnostic survived the allow list: %s", d)
		}
	}
}

func TestNoDeterminism(t *testing.T) {
	runFixture(t, "nodeterminism", &NoDeterminism{Packages: []string{"fix/det", "fix/traffic"}})
}

// TestNoDeterminismTransitive pins the analyzer's scope: a covered
// package's calls into an uncovered one are not followed.
func TestNoDeterminismTransitive(t *testing.T) {
	runFixture(t, "ndtrans", &NoDeterminism{Packages: []string{"fix/det"}})
}

// TestCtxFlowTransitive pins the analyzer's scope: a ctx-less helper's
// calls are not followed from the ctx-holding frame above it.
func TestCtxFlowTransitive(t *testing.T) {
	runFixture(t, "ctxtrans", &CtxFlow{})
}

func TestLockDiscipline(t *testing.T) {
	runFixture(t, "lockdiscipline", &LockDiscipline{})
}

func TestErrWrap(t *testing.T) {
	runFixture(t, "errwrap", &ErrWrap{})
}

func TestNoPanic(t *testing.T) {
	runFixture(t, "nopanic", &NoPanic{})
}
