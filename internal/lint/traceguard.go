package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// TraceGuard flags method calls on a possibly-nil tracer pointer. The
// runtime's tracers (*trace.Tracer, the per-rank tracer structs) are
// optional: a nil pointer means tracing is off, and every access must
// either sit under an explicit nil check or go through a method that
// guards its own receiver. A bare `st.tr.noteSend(...)` works in traced
// tests and panics in production the first time someone runs without
// -trace.
//
// A call is exempt when the receiver is the enclosing method's own
// receiver, a local variable, a callee whose body begins with
// `if recv == nil { return }` (nil-safe helper), or an expression proven
// non-nil by a dominating `x != nil` guard (including `x == nil` guards
// whose then-branch terminates).
var TraceGuard = &Analyzer{
	Name: "traceguard",
	Doc:  "flags tracer method calls on a possibly-nil pointer receiver outside nil guards",
	Run:  runTraceGuard,
}

func runTraceGuard(pass *Pass) error {
	nilSafe := nilSafeMethods(pass.Files)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			recv := ""
			if fd.Recv != nil && len(fd.Recv.List) == 1 && len(fd.Recv.List[0].Names) == 1 {
				recv = fd.Recv.List[0].Names[0].Name
			}
			tg := &traceGuard{pass: pass, recv: recv, nilSafe: nilSafe, locals: localObjects(pass, fd.Body)}
			tg.walkStmts(fd.Body.List, map[string]bool{})
			// Function literals get a fresh environment: the guard that
			// dominated their creation site may not hold when they run.
			for len(tg.lits) > 0 {
				lit := tg.lits[0]
				tg.lits = tg.lits[1:]
				tg.walkStmts(lit.Body.List, map[string]bool{})
			}
		}
	}
	return nil
}

type traceGuard struct {
	pass    *Pass
	recv    string
	nilSafe map[string]bool
	locals  map[types.Object]bool
	lits    []*ast.FuncLit
}

// nilSafeMethods collects methods whose body begins with a
// `if recv == nil { return }` self-guard; calling them on a nil receiver
// is safe by construction.
func nilSafeMethods(files []*ast.File) map[string]bool {
	out := map[string]bool{}
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Recv == nil ||
				len(fd.Recv.List) != 1 || len(fd.Recv.List[0].Names) != 1 {
				continue
			}
			recv := fd.Recv.List[0].Names[0].Name
			if len(fd.Body.List) == 0 {
				continue
			}
			ifs, ok := fd.Body.List[0].(*ast.IfStmt)
			if !ok || ifs.Else != nil || !terminates(ifs.Body) {
				continue
			}
			if x := nilComparand(ifs.Cond, true); x != nil {
				if id, ok := x.(*ast.Ident); ok && id.Name == recv {
					out[fd.Name.Name] = true
				}
			}
		}
	}
	return out
}

// localObjects collects every object declared inside the body (:=, var,
// range and type-switch bindings). A tracer held in a local is exempt:
// locals are overwhelmingly just-constructed or just-guarded values, and
// flagging them would punish the idiomatic `tr := newTracer()`.
func localObjects(pass *Pass, body *ast.BlockStmt) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := pass.Info.Defs[id]; obj != nil {
				out[obj] = true
			}
		}
		return true
	})
	return out
}

// walkStmts flows the set of known-non-nil expressions (keyed by their
// printed form) through a statement list, checking every tracer call
// against the environment in force at its statement.
func (tg *traceGuard) walkStmts(stmts []ast.Stmt, env map[string]bool) {
	for _, stmt := range stmts {
		switch s := stmt.(type) {
		case *ast.IfStmt:
			if s.Init != nil {
				tg.walkStmts([]ast.Stmt{s.Init}, env)
			}
			tg.checkCalls(s.Cond, env)
			thenEnv := copyEnv(env)
			elseEnv := copyEnv(env)
			for _, x := range nonNilConjuncts(s.Cond) {
				thenEnv[types.ExprString(x)] = true
			}
			if x := nilComparand(s.Cond, true); x != nil {
				elseEnv[types.ExprString(x)] = true
				// `if x == nil { return }` proves x for the tail.
				if terminates(s.Body) {
					env[types.ExprString(x)] = true
				}
			}
			tg.walkStmts(s.Body.List, thenEnv)
			switch e := s.Else.(type) {
			case *ast.BlockStmt:
				tg.walkStmts(e.List, elseEnv)
			case *ast.IfStmt:
				tg.walkStmts([]ast.Stmt{e}, elseEnv)
			}
		case *ast.AssignStmt:
			tg.checkCalls(s, env)
			for _, lhs := range s.Lhs {
				invalidate(env, types.ExprString(lhs))
			}
		case *ast.IncDecStmt:
			tg.checkCalls(s, env)
			invalidate(env, types.ExprString(s.X))
		case *ast.BlockStmt:
			tg.walkStmts(s.List, copyEnv(env))
		case *ast.ForStmt:
			if s.Init != nil {
				tg.walkStmts([]ast.Stmt{s.Init}, env)
			}
			if s.Cond != nil {
				tg.checkCalls(s.Cond, env)
			}
			tg.walkStmts(s.Body.List, copyEnv(env))
		case *ast.RangeStmt:
			tg.checkCalls(s.X, env)
			tg.walkStmts(s.Body.List, copyEnv(env))
		case *ast.SwitchStmt:
			if s.Init != nil {
				tg.walkStmts([]ast.Stmt{s.Init}, env)
			}
			if s.Tag != nil {
				tg.checkCalls(s.Tag, env)
			}
			tg.walkClauses(s.Body, env)
		case *ast.TypeSwitchStmt:
			tg.walkClauses(s.Body, env)
		case *ast.SelectStmt:
			tg.walkClauses(s.Body, env)
		case *ast.LabeledStmt:
			tg.walkStmts([]ast.Stmt{s.Stmt}, env)
		default:
			tg.checkCalls(stmt, env)
		}
	}
}

func (tg *traceGuard) walkClauses(body *ast.BlockStmt, env map[string]bool) {
	for _, cl := range body.List {
		switch c := cl.(type) {
		case *ast.CaseClause:
			tg.walkStmts(c.Body, copyEnv(env))
		case *ast.CommClause:
			tg.walkStmts(c.Body, copyEnv(env))
		}
	}
}

// checkCalls inspects one statement or expression for tracer method calls
// whose receiver is not proven non-nil. Nested function literals are
// queued for a fresh-environment walk instead of inheriting env.
func (tg *traceGuard) checkCalls(n ast.Node, env map[string]bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		if lit, ok := m.(*ast.FuncLit); ok {
			tg.lits = append(tg.lits, lit)
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		name, recvExpr := methodName(call)
		if recvExpr == nil || !tg.isTracerPtr(recvExpr) {
			return true
		}
		if tg.nilSafe[name] {
			return true
		}
		if id, ok := recvExpr.(*ast.Ident); ok {
			if id.Name == tg.recv {
				return true
			}
			if obj := tg.pass.Info.Uses[id]; obj != nil && tg.locals[obj] {
				return true
			}
		}
		if env[types.ExprString(recvExpr)] {
			return true
		}
		tg.pass.Reportf(call.Pos(), "call to %s on possibly-nil tracer %s: guard with a nil check or make the method nil-safe", name, types.ExprString(recvExpr))
		return true
	})
}

// isTracerPtr reports whether the expression's static type is a pointer
// to a named type whose name ends in "tracer" (Tracer, rankTracer, …).
func (tg *traceGuard) isTracerPtr(expr ast.Expr) bool {
	t := tg.pass.Info.TypeOf(expr)
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	return strings.HasSuffix(strings.ToLower(named.Obj().Name()), "tracer")
}

// nonNilConjuncts returns the expressions proven non-nil when cond is
// true: `x != nil` comparands, joined across `&&`.
func nonNilConjuncts(cond ast.Expr) []ast.Expr {
	var out []ast.Expr
	if be, ok := cond.(*ast.BinaryExpr); ok && be.Op.String() == "&&" {
		out = append(out, nonNilConjuncts(be.X)...)
		out = append(out, nonNilConjuncts(be.Y)...)
		return out
	}
	if x := nilComparand(cond, false); x != nil {
		out = append(out, x)
	}
	return out
}

// nilComparand extracts x from `x == nil` (eq=true) or `x != nil`
// (eq=false), either operand order; nil when cond has another shape.
func nilComparand(cond ast.Expr, eq bool) ast.Expr {
	be, ok := cond.(*ast.BinaryExpr)
	if !ok {
		return nil
	}
	want := "!="
	if eq {
		want = "=="
	}
	if be.Op.String() != want {
		return nil
	}
	if isNilIdent(be.Y) {
		return be.X
	}
	if isNilIdent(be.X) {
		return be.Y
	}
	return nil
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// terminates reports whether the block always leaves the enclosing
// function (return or panic as its last statement).
func terminates(block *ast.BlockStmt) bool {
	if len(block.List) == 0 {
		return false
	}
	switch last := block.List[len(block.List)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.ExprStmt:
		return isPanic(last.X)
	}
	return false
}

func isPanic(expr ast.Expr) bool {
	call, ok := expr.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

func copyEnv(env map[string]bool) map[string]bool {
	out := make(map[string]bool, len(env))
	for k, v := range env {
		out[k] = v
	}
	return out
}

func invalidate(env map[string]bool, lhs string) {
	for k := range env {
		if k == lhs || strings.HasPrefix(k, lhs+".") || strings.HasPrefix(k, lhs+"[") {
			delete(env, k)
		}
	}
}
