package main

import (
	"bytes"
	"strings"
	"testing"
)

// repoRoot is the module root relative to this package's test directory.
const repoRoot = "../.."

// TestRepoIsLintClean runs the full analyzer suite over the repository
// itself, in process. This is the suite eating its own cooking: a change
// that introduces a violation anywhere in the module fails `go test` here,
// not just `make lint`.
func TestRepoIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{repoRoot}, &stdout, &stderr)
	if code != 0 {
		t.Errorf("alexvet exit %d on the repository, want 0\nstdout:\n%s\nstderr:\n%s",
			code, stdout.String(), stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("diagnostics on a clean repo:\n%s", stdout.String())
	}
}

func TestListAnalyzers(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-list", repoRoot}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	for _, name := range []string{"obsnames", "ctxflow", "nodeterminism", "errwrap", "nopanic", "lockdiscipline"} {
		if !strings.Contains(stdout.String(), name) {
			t.Errorf("-list output missing analyzer %s:\n%s", name, stdout.String())
		}
	}
}

// TestAnalyzerSubset runs a two-analyzer subset in process: the subset
// must load, run only the named analyzers, and stay clean on the repo.
func TestAnalyzerSubset(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"-analyzers", "lockdiscipline,nodeterminism", repoRoot}, &stdout, &stderr)
	if code != 0 {
		t.Errorf("exit %d for -analyzers lockdiscipline,nodeterminism, want 0\nstdout:\n%s\nstderr:\n%s",
			code, stdout.String(), stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("diagnostics from subset on a clean repo:\n%s", stdout.String())
	}
}

func TestUnknownAnalyzerRejected(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-analyzers", "bogus", repoRoot}, &stdout, &stderr)
	if code != 2 {
		t.Errorf("exit %d for unknown analyzer, want 2", code)
	}
	if !strings.Contains(stderr.String(), "unknown analyzer") {
		t.Errorf("stderr missing explanation: %s", stderr.String())
	}
}

func TestNonModuleDirRejected(t *testing.T) {
	var stdout, stderr bytes.Buffer
	// This package's own directory has no go.mod.
	code := run([]string{"."}, &stdout, &stderr)
	if code != 2 {
		t.Errorf("exit %d for a non-module dir, want 2", code)
	}
}

func TestPackagePatternSpelling(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-list", repoRoot + "/..."}, &stdout, &stderr)
	if code != 0 {
		t.Errorf("`alexvet dir/...` rejected: exit %d, stderr:\n%s", code, stderr.String())
	}
}
