package lint

import (
	"go/ast"
	"go/types"
	"slices"
)

// NoDeterminism enforces seeded reproducibility in the packages whose
// output the paper's figures are derived from: no wall-clock reads, no
// global (unseeded) math/rand draws, and no slices built in map-iteration
// order. Every stochastic choice must flow from an explicitly seeded
// *rand.Rand so a run is a pure function of its seed.
//
// The check reads only the covered package's own code: a call into
// another package is not followed. Clock reads elsewhere (latency
// metrics in obs, fed, store, endpoint) never feed a covered package's
// outputs, and the outputs themselves are pinned by the figure goldens
// and the simulator's byte-identical op logs.
type NoDeterminism struct {
	// Packages lists the import paths the determinism policy covers.
	Packages []string
}

func (a *NoDeterminism) Name() string { return "nodeterminism" }

func (a *NoDeterminism) Doc() string {
	return "deterministic packages must not read the wall clock, use global math/rand, or emit map-ordered slices"
}

// wallClockFuncs are the time-package functions that read the wall clock.
var wallClockFuncs = map[string]bool{
	"Now":   true,
	"Since": true,
	"Until": true,
}

// seededConstructors are the math/rand package-level functions that merely
// build seeded sources/generators rather than drawing from the global one.
var seededConstructors = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
}

func (a *NoDeterminism) Run(pass *Pass) {
	if !slices.Contains(a.Packages, pass.Pkg.Path) {
		return
	}
	for _, file := range pass.Pkg.Files {
		inspectStack(file, func(n ast.Node, stack []ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				a.checkCall(pass, n)
			case *ast.RangeStmt:
				a.checkMapOrder(pass, n, stack)
			}
			return true
		})
	}
}

// checkCall flags wall-clock reads and global math/rand draws.
func (a *NoDeterminism) checkCall(pass *Pass, sel *ast.SelectorExpr) {
	fn, ok := pass.Pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil {
		return // methods (e.g. (*rand.Rand).Intn, time.Time.Sub) are fine
	}
	switch fn.Pkg().Path() {
	case "time":
		if wallClockFuncs[fn.Name()] {
			pass.Reportf(sel.Pos(),
				"time.%s reads the wall clock in a deterministic package; derive timing from the seed or inject it",
				fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if !seededConstructors[fn.Name()] {
			pass.Reportf(sel.Pos(),
				"rand.%s draws from the global source in a deterministic package; use an explicitly seeded *rand.Rand",
				fn.Name())
		}
	}
}

// checkMapOrder flags `for k := range m` loops over maps whose body
// appends to a slice, unless the enclosing function visibly sorts
// afterwards (a call into sort or slices after the loop). Order then
// leaks map iteration order — randomized per run — into the output.
func (a *NoDeterminism) checkMapOrder(pass *Pass, rng *ast.RangeStmt, stack []ast.Node) {
	t, ok := pass.Pkg.Info.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := t.Type.Underlying().(*types.Map); !isMap {
		return
	}
	var appendTarget ast.Expr
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		asg, ok := n.(*ast.AssignStmt)
		if !ok || len(asg.Rhs) != 1 {
			return true
		}
		call, ok := asg.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		id, ok := unparen(call.Fun).(*ast.Ident)
		if !ok || id.Name != "append" {
			return true
		}
		if _, isBuiltin := pass.Pkg.Info.Uses[id].(*types.Builtin); !isBuiltin {
			return true
		}
		appendTarget = asg.Lhs[0]
		return true
	})
	if appendTarget == nil {
		return
	}
	fd := enclosingFunc(stack)
	if fd != nil && sortsAfter(pass, fd, rng) {
		return
	}
	pass.Reportf(rng.Pos(),
		"map iteration order leaks into %s: sort the result (or iterate sorted keys) before it escapes",
		types.ExprString(appendTarget))
}

// sortsAfter reports whether fd calls into package sort or slices at a
// position after the range statement — the visible "collect then sort"
// idiom that restores determinism.
func sortsAfter(pass *Pass, fd *ast.FuncDecl, rng *ast.RangeStmt) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || sel.Pos() < rng.End() {
			return true
		}
		if fn, ok := pass.Pkg.Info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil {
			if p := fn.Pkg().Path(); p == "sort" || p == "slices" {
				found = true
			}
		}
		return !found
	})
	return found
}
