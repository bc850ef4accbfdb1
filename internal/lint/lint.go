// Package lint is a from-scratch static-analysis driver for this
// repository, built directly on go/parser, go/ast, go/token and go/types
// (no golang.org/x/tools). It loads every package in the module,
// type-checks it, and runs a pluggable set of analyzers that enforce
// repo-specific invariants the compiler cannot see: metric names drawn
// from the central registry (obsnames), context threaded to the request
// (ctxflow), seeded determinism in the RL/simulation packages
// (nodeterminism), error wrapping discipline (errwrap), panic-free
// library code (nopanic) and mutex release on every exit path
// (lockdiscipline).
//
// Every analyzer is one AST walk over one type-checked package: a Pass
// hands it that package and nothing else, so no finding depends on code
// in another package.
//
// Diagnostics carry exact positions and can be suppressed with
// `//lint:ignore <analyzer>[,<analyzer>] <reason>` comments (on the
// offending line or the line above it). cmd/alexvet is the command-line
// front end.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
)

// Analyzer is one named check run over every loaded package.
type Analyzer interface {
	// Name is the analyzer's identifier, used in diagnostics and in
	// //lint:ignore directives.
	Name() string
	// Doc is a one-line description of what the analyzer enforces.
	Doc() string
	// Run inspects one package and reports findings through the pass.
	Run(pass *Pass)
}

// Diagnostic is one finding: which analyzer fired, where, and why.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Pass hands one package to one analyzer and collects its reports.
type Pass struct {
	Pkg      *Package
	Fset     *token.FileSet
	analyzer string
	diags    *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.analyzer,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run executes every analyzer over every package of the program, applies
// //lint:ignore suppressions, and returns the surviving diagnostics sorted
// by position. Malformed suppression directives (no reason given) are
// themselves reported under the pseudo-analyzer "lint".
func Run(prog *Program, analyzers []Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range prog.Packages {
		for _, a := range analyzers {
			pass := &Pass{Pkg: pkg, Fset: prog.Fset, analyzer: a.Name(), diags: &diags}
			a.Run(pass)
		}
	}
	ignores, malformed := collectIgnores(prog)
	diags = append(diags, malformed...)
	kept := diags[:0]
	for _, d := range diags {
		if !ignores.suppresses(d) {
			kept = append(kept, d)
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return kept
}

// ignoreDirective is one parsed //lint:ignore comment. It suppresses
// matching diagnostics on its own line (trailing-comment form) and on the
// following line (comment-above form).
type ignoreDirective struct {
	file      string
	line      int
	analyzers []string // "*" matches every analyzer
}

// ignoreSet indexes directives by file.
type ignoreSet map[string][]ignoreDirective

func (s ignoreSet) suppresses(d Diagnostic) bool {
	for _, dir := range s[d.Pos.Filename] {
		if d.Pos.Line != dir.line && d.Pos.Line != dir.line+1 {
			continue
		}
		for _, a := range dir.analyzers {
			if a == "*" || a == d.Analyzer {
				return true
			}
		}
	}
	return false
}

const ignorePrefix = "//lint:ignore"

// collectIgnores scans every comment of the program for //lint:ignore
// directives. A directive must name at least one analyzer and give a
// non-empty reason; one that does not is reported as malformed instead of
// silently suppressing nothing.
func collectIgnores(prog *Program) (ignoreSet, []Diagnostic) {
	set := make(ignoreSet)
	var malformed []Diagnostic
	for _, pkg := range prog.Packages {
		for _, file := range pkg.Files {
			for _, group := range file.Comments {
				for _, c := range group.List {
					if !strings.HasPrefix(c.Text, ignorePrefix) {
						continue
					}
					pos := prog.Fset.Position(c.Pos())
					rest := strings.TrimPrefix(c.Text, ignorePrefix)
					fields := strings.Fields(rest)
					if len(fields) < 2 {
						malformed = append(malformed, Diagnostic{
							Analyzer: "lint",
							Pos:      pos,
							Message:  "malformed //lint:ignore directive: want `//lint:ignore <analyzer>[,<analyzer>] <reason>`",
						})
						continue
					}
					set[pos.Filename] = append(set[pos.Filename], ignoreDirective{
						file:      pos.Filename,
						line:      pos.Line,
						analyzers: strings.Split(fields[0], ","),
					})
				}
			}
		}
	}
	return set, malformed
}

// RelativeTo rewrites diagnostic file names relative to dir, for stable
// output independent of the absolute checkout location.
func RelativeTo(diags []Diagnostic, dir string) []Diagnostic {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return diags
	}
	out := make([]Diagnostic, len(diags))
	for i, d := range diags {
		if rel, err := filepath.Rel(abs, d.Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			d.Pos.Filename = filepath.ToSlash(rel)
		}
		out[i] = d
	}
	return out
}

// inspectStack walks root like ast.Inspect but also hands f the stack of
// ancestor nodes (outermost first, not including n itself). Returning
// false skips n's children.
func inspectStack(root ast.Node, f func(n ast.Node, stack []ast.Node) bool) {
	v := &stackVisitor{f: f}
	ast.Walk(v, root)
}

type stackVisitor struct {
	stack []ast.Node
	f     func(n ast.Node, stack []ast.Node) bool
}

func (v *stackVisitor) Visit(n ast.Node) ast.Visitor {
	if n == nil {
		v.stack = v.stack[:len(v.stack)-1]
		return nil
	}
	if !v.f(n, v.stack) {
		return nil
	}
	v.stack = append(v.stack, n)
	return v
}

// enclosingFunc returns the innermost FuncDecl on the stack, if any.
func enclosingFunc(stack []ast.Node) *ast.FuncDecl {
	for i := len(stack) - 1; i >= 0; i-- {
		if fd, ok := stack[i].(*ast.FuncDecl); ok {
			return fd
		}
	}
	return nil
}

// unparen strips any number of enclosing parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
