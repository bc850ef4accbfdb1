package lint

import (
	"go/token"
	"path/filepath"
	"testing"
)

func TestRelativeTo(t *testing.T) {
	abs, err := filepath.Abs("x")
	if err != nil {
		t.Fatal(err)
	}
	diags := []Diagnostic{
		{Analyzer: "a", Pos: token.Position{Filename: filepath.Join(abs, "p", "f.go"), Line: 1, Column: 1}},
		{Analyzer: "b", Pos: token.Position{Filename: filepath.FromSlash("/elsewhere/g.go"), Line: 2, Column: 2}},
	}
	out := RelativeTo(diags, "x")
	if got, want := out[0].Pos.Filename, "p/f.go"; got != want {
		t.Errorf("inside-dir path = %q, want %q", got, want)
	}
	if got := out[1].Pos.Filename; got != filepath.FromSlash("/elsewhere/g.go") {
		t.Errorf("outside-dir path rewritten to %q, want untouched", got)
	}
}
