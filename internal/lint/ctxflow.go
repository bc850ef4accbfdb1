package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// CtxFlow enforces context threading, the invariant the fault-tolerance
// layer depends on: a query is only cancellable if its context reaches the
// HTTP request, so fresh root contexts must not be minted mid-stack.
//
// Two rules:
//
//  1. context.Background() / context.TODO() may appear only in package
//     main or in an explicitly allowed root.
//
//  2. A function that already receives a context.Context must not call a
//     method or function M when an MContext variant taking a context
//     exists — doing so silently drops the caller's deadline and
//     cancellation.
type CtxFlow struct {
	// Allow lists fully qualified functions ("pkg/path.FuncName")
	// permitted to create root contexts.
	Allow []string
}

func (a *CtxFlow) Name() string { return "ctxflow" }

func (a *CtxFlow) Doc() string {
	return "no fresh root contexts outside main; don't call ctx-less variants when a Context variant exists"
}

func (a *CtxFlow) Run(pass *Pass) {
	if pass.Pkg.Name == "main" {
		return
	}
	allowed := make(map[string]bool, len(a.Allow))
	for _, f := range a.Allow {
		allowed[f] = true
	}
	for _, file := range pass.Pkg.Files {
		inspectStack(file, func(n ast.Node, stack []ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			a.checkRootContext(pass, call, stack, allowed)
			a.checkDroppedContext(pass, call, stack)
			return true
		})
	}
}

// checkRootContext applies rule 1 to one call expression.
func (a *CtxFlow) checkRootContext(pass *Pass, call *ast.CallExpr, stack []ast.Node, allowed map[string]bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := pass.Pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
		return
	}
	if fn.Name() != "Background" && fn.Name() != "TODO" {
		return
	}
	if fd := enclosingFunc(stack); fd != nil && allowed[pass.Pkg.Path+"."+fd.Name.Name] {
		return
	}
	pass.Reportf(call.Pos(),
		"context.%s() outside main: accept a ctx parameter and thread it instead",
		fn.Name())
}

// checkDroppedContext applies rule 2 to one call expression.
func (a *CtxFlow) checkDroppedContext(pass *Pass, call *ast.CallExpr, stack []ast.Node) {
	fd := enclosingFunc(stack)
	if fd == nil || !hasContextParam(pass, fd) {
		return
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := pass.Pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || strings.HasSuffix(fn.Name(), "Context") {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	// Already context-aware: first parameter is a context.Context.
	if ps := sig.Params(); ps.Len() > 0 && isContextType(ps.At(0).Type()) {
		return
	}
	variant := a.contextVariant(pass, sel, fn)
	if variant == nil {
		return
	}
	pass.Reportf(call.Pos(),
		"%s drops the caller's ctx: use %s instead", fn.Name(), variant.Name())
}

// contextVariant finds an <M>Context sibling of the called function fn —
// a method on the same receiver type, or a package-level function in the
// same package — whose first parameter is a context.Context.
func (a *CtxFlow) contextVariant(pass *Pass, sel *ast.SelectorExpr, fn *types.Func) *types.Func {
	want := fn.Name() + "Context"
	var obj types.Object
	if selection, ok := pass.Pkg.Info.Selections[sel]; ok && selection.Kind() == types.MethodVal {
		obj, _, _ = types.LookupFieldOrMethod(selection.Recv(), true, fn.Pkg(), want)
	} else if fn.Pkg() != nil {
		obj = fn.Pkg().Scope().Lookup(want)
	}
	v, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	sig := v.Type().(*types.Signature)
	if ps := sig.Params(); ps.Len() > 0 && isContextType(ps.At(0).Type()) {
		return v
	}
	return nil
}

// hasContextParam reports whether the function declares a context.Context
// parameter.
func hasContextParam(pass *Pass, fd *ast.FuncDecl) bool {
	if fd.Type.Params == nil {
		return false
	}
	for _, field := range fd.Type.Params.List {
		if t, ok := pass.Pkg.Info.Types[field.Type]; ok && isContextType(t.Type) {
			return true
		}
	}
	return false
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}
