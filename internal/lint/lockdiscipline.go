package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
)

// LockDiscipline enforces the repo's mutex protocol, which the striped
// dict/index locks and the serving-layer caches depend on:
//
//  1. every Lock()/RLock() is released on all exit paths — by a defer
//     (direct, or in a deferred closure) or by a straight-line Unlock
//     before every return;
//  2. no return (or fall-off-the-end) while a lock is still held.
//
// The analysis is block-structured and deliberately conservative in the
// false-positive direction: at control-flow joins the held set is the
// intersection of the branch states (a lock held on only some paths is
// not reported at the join; a later return that must hold it still is),
// and loop bodies must be lock-balanced. Every function literal — a
// goroutine body, a deferred closure, a callback — is analyzed as a scope
// of its own that must release what it locks. Lock instances are keyed by
// operand expression ("s.mu"). Calls are not followed: the unlock must be
// visible in the function that locks, or in a closure it defers.
type LockDiscipline struct{}

func (a *LockDiscipline) Name() string { return "lockdiscipline" }

func (a *LockDiscipline) Doc() string {
	return "locks released on every exit path; no return while a lock is held"
}

func (a *LockDiscipline) Run(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkLocks(pass, fd)
		}
	}
}

// lockInstance identifies one mutex operand within a function.
type lockInstance struct {
	key  string // types.ExprString of the operand ("s.mu")
	read bool   // RLock/RUnlock
	pos  token.Pos
}

// ldState is the abstract lock state at one program point.
type ldState struct {
	held     map[string]lockInstance // by instance key
	deferred map[string]bool         // instance keys released at exit
}

func newLDState() *ldState {
	return &ldState{held: map[string]lockInstance{}, deferred: map[string]bool{}}
}

func (s *ldState) clone() *ldState {
	c := newLDState()
	for k, v := range s.held {
		c.held[k] = v
	}
	for k := range s.deferred {
		c.deferred[k] = true
	}
	return c
}

// intersect keeps only the held locks and defers present in both states
// (the must-hold join that keeps conditional locking out of the reports).
func (s *ldState) intersect(o *ldState) {
	for k := range s.held {
		if _, ok := o.held[k]; !ok {
			delete(s.held, k)
		}
	}
	for k := range s.deferred {
		if !o.deferred[k] {
			delete(s.deferred, k)
		}
	}
}

// ldChecker carries per-function analysis context.
type ldChecker struct {
	pass     *Pass
	reported map[string]bool // instance keys already reported (leak dedupe)
	// subScopes queues function literals analyzed as independent scopes
	// after the main body.
	subScopes []*ast.BlockStmt
}

func checkLocks(pass *Pass, fd *ast.FuncDecl) {
	c := &ldChecker{pass: pass, reported: map[string]bool{}}
	c.scope(fd.Body, "function ends")
	// Closures run in their own dynamic context: balance is checked per
	// scope. (Queued scopes may queue further scopes.)
	for len(c.subScopes) > 0 {
		body := c.subScopes[0]
		c.subScopes = c.subScopes[1:]
		c.scope(body, "closure ends")
	}
	c.checkNeverReleased(fd)
}

// scope interprets one function body from an empty lock state and checks
// what is still held if control falls off its end.
func (c *ldChecker) scope(body *ast.BlockStmt, what string) {
	st := newLDState()
	if !c.stmts(body.List, st) {
		c.checkExit(st, body.Rbrace, what)
	}
}

// stmts interprets a statement list, mutating st. The return reports
// whether every path through the list terminates (return/branch) before
// reaching the end.
func (c *ldChecker) stmts(list []ast.Stmt, st *ldState) bool {
	for _, stmt := range list {
		if c.stmt(stmt, st) {
			return true
		}
	}
	return false
}

func (c *ldChecker) stmt(stmt ast.Stmt, st *ldState) bool {
	switch s := stmt.(type) {
	case *ast.BlockStmt:
		return c.stmts(s.List, st)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			c.expr(r, st)
		}
		c.checkExit(st, s.Pos(), "returns")
		return true
	case *ast.BranchStmt:
		// break/continue/goto leave the current path; balance is checked
		// where the path resumes, which this block-level analysis does
		// not model — treat as terminated (conservatively silent).
		return true
	case *ast.IfStmt:
		if s.Init != nil {
			c.stmt(s.Init, st)
		}
		c.expr(s.Cond, st)
		thenSt := st.clone()
		thenTerm := c.stmts(s.Body.List, thenSt)
		elseSt := st.clone()
		elseTerm := false
		if s.Else != nil {
			elseTerm = c.stmt(s.Else, elseSt)
		}
		switch {
		case thenTerm && elseTerm:
			return true
		case thenTerm:
			*st = *elseSt
		case elseTerm:
			*st = *thenSt
		default:
			thenSt.intersect(elseSt)
			*st = *thenSt
		}
		return false
	case *ast.ForStmt:
		if s.Init != nil {
			c.stmt(s.Init, st)
		}
		if s.Cond != nil {
			c.expr(s.Cond, st)
		}
		c.loopBody(s.Body, st)
		return false
	case *ast.RangeStmt:
		c.expr(s.X, st)
		c.loopBody(s.Body, st)
		return false
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return c.branches(stmt, st)
	case *ast.DeferStmt:
		c.deferCall(s.Call, st)
		return false
	case *ast.GoStmt:
		// Runs asynchronously: analyze the body as a separate scope.
		if lit, ok := unparen(s.Call.Fun).(*ast.FuncLit); ok {
			c.subScopes = append(c.subScopes, lit.Body)
		}
		for _, arg := range s.Call.Args {
			c.expr(arg, st)
		}
		return false
	case *ast.LabeledStmt:
		return c.stmt(s.Stmt, st)
	case nil:
		return false
	default:
		// Simple statements: scan contained expressions in order.
		ast.Inspect(stmt, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				c.expr(e, st)
				return false
			}
			return true
		})
		return false
	}
}

// loopBody interprets a loop body on a clone (the loop may run zero
// times) and reports any lock the body acquires without releasing.
func (c *ldChecker) loopBody(body *ast.BlockStmt, st *ldState) {
	entry := st.clone()
	inner := st.clone()
	if c.stmts(body.List, inner) {
		return // every path breaks/returns; exit checks already ran
	}
	for k, inst := range inner.held {
		if _, was := entry.held[k]; was || inner.deferred[k] {
			continue
		}
		c.pass.Reportf(inst.pos,
			"loop body leaves %s locked: each iteration must release what it acquires", inst.key)
		c.reported[inst.key] = true
	}
}

// branches interprets switch/type-switch/select clause bodies as
// alternative paths and joins them by intersection.
func (c *ldChecker) branches(stmt ast.Stmt, st *ldState) bool {
	var bodies [][]ast.Stmt
	hasDefault := false
	collect := func(body []ast.Stmt, isDefault bool) {
		bodies = append(bodies, body)
		if isDefault {
			hasDefault = true
		}
	}
	switch s := stmt.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			c.stmt(s.Init, st)
		}
		if s.Tag != nil {
			c.expr(s.Tag, st)
		}
		for _, cc := range s.Body.List {
			clause := cc.(*ast.CaseClause)
			collect(clause.Body, clause.List == nil)
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			c.stmt(s.Init, st)
		}
		for _, cc := range s.Body.List {
			clause := cc.(*ast.CaseClause)
			collect(clause.Body, clause.List == nil)
		}
	case *ast.SelectStmt:
		// A select always executes exactly one case.
		hasDefault = true
		for _, cc := range s.Body.List {
			clause := cc.(*ast.CommClause)
			if clause.Comm != nil {
				c.stmt(clause.Comm, st)
			}
			collect(clause.Body, false)
		}
	}
	if len(bodies) == 0 {
		return false
	}
	var joined *ldState
	allTerm := true
	for _, body := range bodies {
		bs := st.clone()
		if c.stmts(body, bs) {
			continue
		}
		allTerm = false
		if joined == nil {
			joined = bs
		} else {
			joined.intersect(bs)
		}
	}
	if allTerm && hasDefault {
		return true
	}
	if joined != nil {
		if !hasDefault {
			joined.intersect(st) // the no-case-matched path
		}
		*st = *joined
	}
	return false
}

// deferCall registers the exit-time releases a defer performs.
func (c *ldChecker) deferCall(call *ast.CallExpr, st *ldState) {
	switch fun := unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if inst, acquire, ok := c.lockOp(fun); ok && !acquire {
			st.deferred[inst.key] = true
		}
	case *ast.FuncLit:
		// defer func() { ... }(): the body is a scope of its own that must
		// release what it locks, and its unlocks of instances it did not
		// lock release the enclosing function's locks at exit.
		c.subScopes = append(c.subScopes, fun.Body)
		locked := map[string]bool{}
		ast.Inspect(fun.Body, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			inst, acquire, ok := c.lockOp(sel)
			if !ok {
				return true
			}
			if acquire {
				locked[inst.key] = true
			} else if !locked[inst.key] {
				st.deferred[inst.key] = true
			}
			return true
		})
	}
}

// expr scans one expression in evaluation-ish (pre-)order, applying lock
// operations. Function literals are queued as separate scopes.
func (c *ldChecker) expr(e ast.Expr, st *ldState) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			c.subScopes = append(c.subScopes, n.Body)
			return false
		case *ast.CallExpr:
			if sel, ok := unparen(n.Fun).(*ast.SelectorExpr); ok {
				if inst, acquire, ok := c.lockOp(sel); ok {
					c.applyLockOp(inst, acquire, st)
				}
			}
		}
		return true
	})
}

// lockOp matches a selector that names a sync.Mutex/RWMutex method and
// resolves its operand instance.
func (c *ldChecker) lockOp(sel *ast.SelectorExpr) (inst lockInstance, acquire, ok bool) {
	fn, isFunc := c.pass.Pkg.Info.Uses[sel.Sel].(*types.Func)
	if !isFunc || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return lockInstance{}, false, false
	}
	switch fn.Name() {
	case "Lock", "RLock":
		acquire = true
	case "Unlock", "RUnlock":
	default:
		return lockInstance{}, false, false
	}
	inst = lockInstance{
		key:  types.ExprString(unparen(sel.X)),
		read: fn.Name() == "RLock" || fn.Name() == "RUnlock",
		pos:  sel.Pos(),
	}
	return inst, acquire, true
}

func (c *ldChecker) applyLockOp(inst lockInstance, acquire bool, st *ldState) {
	if !acquire {
		delete(st.held, inst.key)
		return
	}
	if prev, dup := st.held[inst.key]; dup && !(prev.read && inst.read) {
		c.pass.Reportf(inst.pos,
			"%s locked again while already held (first at %s): self-deadlock",
			inst.key, c.shortPos(prev.pos))
		c.reported[inst.key] = true
		return
	}
	st.held[inst.key] = inst
}

// checkExit reports every lock still held (and not defer-covered) at an
// exit point.
func (c *ldChecker) checkExit(st *ldState, pos token.Pos, what string) {
	for _, inst := range st.held {
		if st.deferred[inst.key] {
			continue
		}
		c.pass.Reportf(pos,
			"%s with %s still locked (acquired at %s): unlock on every exit path or defer the unlock",
			what, inst.key, c.shortPos(inst.pos))
		c.reported[inst.key] = true
	}
}

// checkNeverReleased is the backstop leak check: a Lock whose instance is
// never unlocked anywhere in the function (directly, deferred, or in a
// closure) is reported even when conservative joins hid it from the exit
// checks.
func (c *ldChecker) checkNeverReleased(fd *ast.FuncDecl) {
	released := map[string]bool{}
	var acquires []lockInstance
	ast.Inspect(fd, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if inst, acquire, ok := c.lockOp(sel); ok {
				if acquire {
					acquires = append(acquires, inst)
				} else {
					released[inst.key] = true
				}
			}
		}
		return true
	})
	for _, inst := range acquires {
		if released[inst.key] || c.reported[inst.key] {
			continue
		}
		c.pass.Reportf(inst.pos,
			"%s is locked here but never released in this function: add an unlock or defer", inst.key)
	}
}

// shortPos renders a position as "file.go:12".
func (c *ldChecker) shortPos(pos token.Pos) string {
	p := c.pass.Fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}
