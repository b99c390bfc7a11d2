package lint

import (
	"go/ast"
	"go/token"
)

// WaitCheck flags Isend/IsendOwned requests that can reach function
// exit without Wait, Test or Waitall on some path. The runtime's NIC
// completes requests asynchronously; dropping one means the chain can be
// declared done while a transfer is still in flight (or a buffer still
// owned), which is exactly the failure mode Waitall at chain end exists
// to prevent.
//
// The analysis is a statement-level all-paths walk with deliberately
// conservative acceptance: a request that escapes the function — stored,
// appended, passed to a call (Waitall included), sent on a channel,
// captured by a closure or returned — is assumed resolved elsewhere, and
// functions using labels, goto, break or continue are skipped entirely.
// That keeps it free of false positives on code it cannot model while
// still proving the common straight-line and branchy cases.
var WaitCheck = &Analyzer{
	Name: "waitcheck",
	Doc:  "flags Isend/IsendOwned requests whose Wait/Test/Waitall is unreachable on some path",
	Run:  runWaitCheck,
}

var requestMakers = map[string]bool{"Isend": true, "IsendOwned": true}
var resolverNames = map[string]bool{"Wait": true, "Test": true}

func runWaitCheck(pass *Pass) error {
	var bodies []*ast.BlockStmt
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					bodies = append(bodies, fn.Body)
				}
			case *ast.FuncLit:
				bodies = append(bodies, fn.Body)
			}
			return true
		})
	}
	for _, body := range bodies {
		checkFuncRequests(pass, body)
	}
	return nil
}

// hasJumps reports whether the body uses control flow the walker does not
// model (labels, goto, break, continue, fallthrough). Nested function
// literals are excluded — they are analyzed on their own.
func hasJumps(body *ast.BlockStmt) bool {
	jumps := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.BranchStmt, *ast.LabeledStmt:
			jumps = true
		}
		return jumps == false
	})
	return jumps
}

// checkFuncRequests finds request-creating statements in every block of
// one function body (not descending into nested function literals) and
// verifies each request resolves on all paths to exit.
func checkFuncRequests(pass *Pass, body *ast.BlockStmt) {
	if hasJumps(body) {
		return
	}
	var walkBlocks func(n ast.Node)
	walkBlocks = func(n ast.Node) {
		ast.Inspect(n, func(m ast.Node) bool {
			if _, ok := m.(*ast.FuncLit); ok && m != n {
				return false
			}
			block, ok := m.(*ast.BlockStmt)
			if !ok {
				return true
			}
			for i, stmt := range block.List {
				checkRequestStmt(pass, stmt, block.List[i+1:])
			}
			return true
		})
	}
	walkBlocks(body)
}

// checkRequestStmt handles one potentially request-creating statement.
func checkRequestStmt(pass *Pass, stmt ast.Stmt, rest []ast.Stmt) {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if name, _ := methodName(call); requestMakers[name] {
				pass.Reportf(call.Pos(), "result of %s is discarded: the request is never waited", name)
			}
		}
	case *ast.AssignStmt:
		if len(s.Rhs) != 1 {
			return
		}
		call, ok := s.Rhs[0].(*ast.CallExpr)
		if !ok {
			return
		}
		name, _ := methodName(call)
		if !requestMakers[name] {
			return
		}
		// Only track fresh declarations (`req := …`): their scope ends at
		// the enclosing block, so an unresolved fall-through is a leak.
		// Plain `=` to a named outer variable is an escape the block-local
		// walk cannot follow; `_ =` is a discard and reported above.
		if len(s.Lhs) != 1 {
			return
		}
		id, ok := s.Lhs[0].(*ast.Ident)
		if !ok {
			return
		}
		if id.Name == "_" {
			pass.Reportf(call.Pos(), "result of %s is discarded: the request is never waited", name)
			return
		}
		if s.Tok != token.DEFINE {
			return
		}
		if scanForResolution(pass, rest, id.Name, name) == fellThrough {
			pass.Reportf(id.Pos(), "request %s from %s may reach the end of its scope without Wait/Test/Waitall", id.Name, name)
		}
	}
}

type pathStatus int

const (
	fellThrough pathStatus = iota // reached the end of the list unresolved
	resolved                      // resolved (or escaped) on every continuing path
)

// scanForResolution walks the statements after the request definition.
// It reports (via pass) any return that exits with the request pending,
// and returns whether straight-line fall-through leaves it pending.
func scanForResolution(pass *Pass, stmts []ast.Stmt, req, maker string) pathStatus {
	for _, stmt := range stmts {
		// An escape anywhere inside the statement — even on one branch —
		// conservatively ends tracking: once the value is stored or passed
		// on, responsibility for waiting moved with it.
		if stmtEscapes(stmt, req) {
			return resolved
		}
		switch s := stmt.(type) {
		case *ast.ReturnStmt:
			if nodeResolves(s, req) {
				return resolved
			}
			pass.Reportf(s.Pos(), "return leaves request %s from %s without Wait/Test/Waitall", req, maker)
			return resolved // reported once; stop tracking
		case *ast.ExprStmt:
			if nodeResolves(s, req) {
				return resolved
			}
			if isPanic(s.X) {
				return resolved // the path ends by unwinding, not by leaking
			}
		case *ast.IfStmt:
			// A resolving call in the condition (`if r.Test() {`) runs on
			// every path; one inside a branch body only covers that branch,
			// so the recursion — not a blanket inspect — decides those.
			if s.Init != nil && nodeResolves(s.Init, req) {
				return resolved
			}
			if nodeResolves(s.Cond, req) {
				return resolved
			}
			thenSt := scanForResolution(pass, s.Body.List, req, maker)
			elseSt := fellThrough
			switch e := s.Else.(type) {
			case *ast.BlockStmt:
				elseSt = scanForResolution(pass, e.List, req, maker)
			case *ast.IfStmt:
				elseSt = scanForResolution(pass, []ast.Stmt{e}, req, maker)
			}
			if thenSt == resolved && elseSt == resolved {
				return resolved
			}
		case *ast.BlockStmt:
			if scanForResolution(pass, s.List, req, maker) == resolved {
				return resolved
			}
		case *ast.ForStmt:
			// A resolving condition (`for !r.Test() {}`) runs even when the
			// body does not; the body itself may run zero times, so
			// resolution there does not prove the fall-through path — but
			// returns inside are still exits and get reported.
			if s.Cond != nil && nodeResolves(s.Cond, req) {
				return resolved
			}
			scanForResolution(pass, s.Body.List, req, maker)
		case *ast.RangeStmt:
			scanForResolution(pass, s.Body.List, req, maker)
		case *ast.SwitchStmt:
			if scanCases(pass, s.Body, req, maker) {
				return resolved
			}
		case *ast.TypeSwitchStmt:
			if scanCases(pass, s.Body, req, maker) {
				return resolved
			}
		case *ast.SelectStmt:
			allResolve := len(s.Body.List) > 0
			for _, cl := range s.Body.List {
				if cc, ok := cl.(*ast.CommClause); ok {
					if scanForResolution(pass, cc.Body, req, maker) != resolved {
						allResolve = false
					}
				}
			}
			if allResolve {
				return resolved
			}
		case *ast.DeferStmt:
			// defer runs on every exit of the function.
			if callResolves(s.Call, req) || deferredClosureResolves(s.Call, req) {
				return resolved
			}
		default:
			// Leaf statements (assignments, declarations, go, send…) hold
			// no nested statement lists, so a blanket inspect is safe.
			if nodeResolves(stmt, req) {
				return resolved
			}
		}
	}
	return fellThrough
}

// scanCases handles switch bodies: resolved only when every case resolves
// and a default exists (otherwise control can fall past the switch).
func scanCases(pass *Pass, body *ast.BlockStmt, req, maker string) bool {
	hasDefault := false
	allResolve := len(body.List) > 0
	for _, cl := range body.List {
		cc, ok := cl.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		if scanForResolution(pass, cc.Body, req, maker) != resolved {
			allResolve = false
		}
	}
	return hasDefault && allResolve
}

// nodeResolves reports whether the node contains a direct resolution of
// the request: req.Wait() or req.Test().
func nodeResolves(node ast.Node, req string) bool {
	found := false
	ast.Inspect(node, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && callResolves(call, req) {
			found = true
		}
		return !found
	})
	return found
}

func callResolves(call *ast.CallExpr, req string) bool {
	name, recv := methodName(call)
	if !resolverNames[name] {
		return false
	}
	id, ok := recv.(*ast.Ident)
	return ok && id.Name == req
}

// stmtEscapes reports whether the request value leaves the walker's view:
// used as a call argument (append and Waitall included), assigned or sent
// anywhere, returned, composite-literal'd, or captured by a closure.
func stmtEscapes(stmt ast.Stmt, req string) bool {
	escaped := false
	ast.Inspect(stmt, func(n ast.Node) bool {
		if escaped {
			return false
		}
		switch e := n.(type) {
		case *ast.CallExpr:
			for _, arg := range e.Args {
				if exprMentions(arg, req) {
					escaped = true
				}
			}
		case *ast.AssignStmt:
			for _, rhs := range e.Rhs {
				if exprMentions(rhs, req) {
					escaped = true
				}
			}
		case *ast.SendStmt:
			if exprMentions(e.Value, req) {
				escaped = true
			}
		case *ast.ReturnStmt:
			for _, r := range e.Results {
				if exprMentions(r, req) {
					escaped = true
				}
			}
		case *ast.CompositeLit:
			for _, el := range e.Elts {
				if exprMentions(el, req) {
					escaped = true
				}
			}
		case *ast.FuncLit:
			if exprMentions(e, req) {
				escaped = true
			}
			return false
		}
		return !escaped
	})
	return escaped
}

// exprMentions reports whether the identifier appears anywhere in expr,
// except as the receiver of a Wait/Test call (that is resolution, not
// escape).
func exprMentions(expr ast.Node, req string) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if found {
			return false
		}
		if sel, ok := n.(*ast.SelectorExpr); ok && resolverNames[sel.Sel.Name] {
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == req {
				return false
			}
		}
		if id, ok := n.(*ast.Ident); ok && id.Name == req {
			found = true
		}
		return !found
	})
	return found
}

// deferredClosureResolves handles `defer func() { req.Wait() }()`.
func deferredClosureResolves(call *ast.CallExpr, req string) bool {
	lit, ok := call.Fun.(*ast.FuncLit)
	if !ok {
		return false
	}
	for _, stmt := range lit.Body.List {
		found := false
		ast.Inspect(stmt, func(n ast.Node) bool {
			if c, ok := n.(*ast.CallExpr); ok && callResolves(c, req) {
				found = true
			}
			return !found
		})
		if found {
			return true
		}
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
