package tilespace

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestLockOrder runs LockOrder over every package of the tree's load: each
// package of this module with its test variants, _test.go files included,
// and the benchmark module. It catches a bug class the test suite and the
// race detector both miss: an ABBA between two of the TCP mesh's mutexes
// (TCPMesh.mu and outLink.mu) passes the mpi tests, -race included, since a
// deadlock needs the two paths to interleave.
func TestLockOrder(t *testing.T) {
	l := loadTree(t)
	reported := map[string]bool{} // a file in several variants is read once per variant
	for _, p := range l.pkgs {
		for _, f := range lockOrder(p) {
			if msg := fmt.Sprintf("%s: %s", l.fset.Position(f.pos), f.msg); !reported[msg] {
				reported[msg] = true
				t.Error(msg)
			}
		}
	}
}

var wantRe = regexp.MustCompile(`want "((?:[^"\\]|\\.)*)"`)

// TestLockOrderFixture runs LockOrder on testdata/lockorder, a module of its
// own, and checks its findings against the fixture's `// want "regexp"`
// comments: every finding is expected and every expectation met.
func TestLockOrderFixture(t *testing.T) {
	l, err := loadModules("testdata/lockorder")
	if err != nil {
		t.Fatal(err)
	}
	wants := map[string][]*regexp.Regexp{} // file:line -> patterns
	for _, p := range l.pkgs {
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
						pos := l.fset.Position(c.Pos())
						key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
						wants[key] = append(wants[key], regexp.MustCompile(m[1]))
					}
				}
			}
		}
	}
	for _, p := range l.pkgs {
		for _, f := range lockOrder(p) {
			pos := l.fset.Position(f.pos)
			key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
			i := 0
			for i < len(wants[key]) && !wants[key][i].MatchString(f.msg) {
				i++
			}
			if i == len(wants[key]) {
				t.Errorf("unexpected finding at %s: %s", pos, f.msg)
				continue
			}
			wants[key] = append(wants[key][:i], wants[key][i+1:]...)
		}
	}
	for _, key := range sortedKeys(wants) {
		for _, re := range wants[key] {
			t.Errorf("missing finding at %s matching %q", key, re)
		}
	}
}

// TestLockOrderCatchesSeededViolation runs the loader and LockOrder end to
// end on a throwaway module written at test time: its two methods lock the
// same two mutex classes in opposite orders (an ABBA deadlock no
// single-threaded test can hit), one under a deferred Unlock and a loop.
func TestLockOrderCatchesSeededViolation(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module scratch\n\ngo 1.22\n",
		"scratch.go": `package scratch

import "sync"

type mesh struct {
	mu    sync.Mutex
	links []*link
}

type link struct {
	mu sync.Mutex
	m  *mesh
}

func (m *mesh) reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, l := range m.links {
		l.mu.Lock()
		l.mu.Unlock()
	}
}

func (l *link) monitor() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.m.mu.Lock()
	l.m.mu.Unlock()
}
`,
	}
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l, err := loadModules(dir)
	if err != nil {
		t.Fatal(err)
	}
	var msgs []string
	for _, p := range l.pkgs {
		for _, f := range lockOrder(p) {
			msgs = append(msgs, f.msg)
		}
	}
	const want = "lock order cycle: mesh.mu acquired while holding link.mu"
	for _, m := range msgs {
		if strings.Contains(m, want) {
			return
		}
	}
	t.Fatalf("no finding %q on a seeded lock-order cycle; got %q", want, msgs)
}

// lockFinding is one LockOrder report.
type lockFinding struct {
	pos token.Pos
	msg string
}

var lockNames = map[string]bool{"Lock": true, "RLock": true}
var unlockNames = map[string]bool{"Unlock": true, "RUnlock": true}

// loEdge is one "to acquired while from held" observation.
type loEdge struct {
	from, to         string
	fromExpr, toExpr string // receiver spelling, for self-edge precision
	pos              token.Pos
}

// loCall is a same-package call made while holding locks.
type loCall struct {
	callee string
	held   []string
	pos    token.Pos
}

// loFunc is one function's lock summary.
type loFunc struct {
	direct map[string]bool
	edges  []loEdge
	calls  []loCall
}

// lockOrder builds the package's mutex acquisition-order graph and flags
// cycles — the static form of an ABBA deadlock. A mutex class is
// "Type.field" (every instance of TCPMesh.mu is one class); an edge
// A→B is recorded whenever B is locked while A is held, either directly
// in one body or transitively through a same-package call made under A.
// A cycle means two code paths disagree about which class comes first,
// so some interleaving of two goroutines can deadlock.
//
// Scope and precision: only struct-field mutexes participate (function
// locals are scoped to one frame and cannot form cross-goroutine
// cycles); held-set tracking is a source-order walk, with `defer
// Unlock` correctly keeping the class held to function end; function
// literals are walked with an empty held set (goroutine bodies start
// fresh), and so is the callee of a go statement: its operands are
// evaluated under the spawner's held set, but the call itself runs on a
// goroutine that holds nothing. Same-class self-edges are reported only
// when the two lock sites name the syntactically identical receiver —
// `l.mu` locked twice is a certain self-deadlock, while locking two
// different instances of one class is an instance-ordering question this
// analyzer stays silent on.
func lockOrder(p *loadedPackage) []lockFinding {
	var findings []lockFinding
	funcs := map[string]*loFunc{}
	var lits []*loFunc // function literals: edges only, not in call graph

	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn := &loFunc{direct: map[string]bool{}}
			walkLockBody(p, fd.Body, fn, &lits)
			funcs[funcKey(fd)] = fn
		}
	}

	// Transitive closure: every class a function may acquire, through
	// any chain of same-package calls.
	acquires := map[string]map[string]bool{}
	for key, fn := range funcs {
		acquires[key] = map[string]bool{}
		for c := range fn.direct {
			acquires[key][c] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for key, fn := range funcs {
			for _, call := range fn.calls {
				for c := range acquires[call.callee] {
					if !acquires[key][c] {
						acquires[key][c] = true
						changed = true
					}
				}
			}
		}
	}

	// Assemble the class graph: direct edges plus call-induced edges
	// (held → anything the callee may acquire).
	var edges []loEdge
	collect := func(fn *loFunc) {
		edges = append(edges, fn.edges...)
		for _, call := range fn.calls {
			targets := make([]string, 0, len(acquires[call.callee]))
			for c := range acquires[call.callee] {
				targets = append(targets, c)
			}
			sort.Strings(targets)
			for _, c := range targets {
				for _, h := range call.held {
					if h == c {
						continue // instance ambiguity: stay silent
					}
					edges = append(edges, loEdge{from: h, to: c, pos: call.pos})
				}
			}
		}
	}
	for _, key := range sortedKeys(funcs) {
		collect(funcs[key])
	}
	for _, fn := range lits {
		collect(fn)
	}

	adj := map[string]map[string]bool{}
	for _, e := range edges {
		if e.from == e.to {
			continue
		}
		if adj[e.from] == nil {
			adj[e.from] = map[string]bool{}
		}
		adj[e.from][e.to] = true
	}

	// Report each edge that closes a cycle (a path back from its target
	// to its source exists), once per ordered class pair; and every
	// identical-receiver re-lock.
	reported := map[[2]string]bool{}
	for _, e := range edges {
		if e.from == e.to {
			if e.fromExpr != "" && e.fromExpr == e.toExpr {
				findings = append(findings, lockFinding{e.pos, fmt.Sprintf("lock order: %s (%s) reacquired while already held — self-deadlock", e.to, e.toExpr)})
			}
			continue
		}
		if !reachable(adj, e.to, e.from) {
			continue
		}
		pair := [2]string{e.from, e.to}
		if reported[pair] {
			continue
		}
		reported[pair] = true
		findings = append(findings, lockFinding{e.pos, fmt.Sprintf("lock order cycle: %s acquired while holding %s, but the reverse order also occurs", e.to, e.from)})
	}
	return findings
}

// walkLockBody walks one body in source order, maintaining the held set.
// Nested function literals are queued for their own empty-held walk.
func walkLockBody(p *loadedPackage, body *ast.BlockStmt, fn *loFunc, lits *[]*loFunc) {
	held := map[string]string{} // class → receiver spelling
	var walk func(n ast.Node, deferred bool)
	walk = func(n ast.Node, deferred bool) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch x := m.(type) {
			case *ast.FuncLit:
				lf := &loFunc{direct: map[string]bool{}}
				walkLockBody(p, x.Body, lf, lits)
				*lits = append(*lits, lf)
				// Literal acquisitions still count toward the enclosing
				// function's transitive summary: a helper that spawns a
				// locking goroutine inline may still run it via callers.
				for c := range lf.direct {
					fn.direct[c] = true
				}
				fn.calls = append(fn.calls, lf.calls...)
				return false
			case *ast.DeferStmt:
				walk(x.Call, true)
				return false
			case *ast.GoStmt:
				fun := x.Call.Fun
				if sel, ok := fun.(*ast.SelectorExpr); ok {
					fun = sel.X // the receiver is an operand; the method is the callee
				}
				walk(fun, false)
				for _, arg := range x.Call.Args {
					walk(arg, false)
				}
				if callee, ok := calleeKey(p, x.Call); ok {
					fn.calls = append(fn.calls, loCall{callee: callee, pos: x.Call.Pos()})
				}
				return false
			case *ast.CallExpr:
				name, recv := methodName(x)
				if (lockNames[name] || unlockNames[name]) && recv != nil {
					if class, expr, ok := mutexClass(p, recv); ok {
						if lockNames[name] {
							if prev, dup := held[class]; dup {
								fn.edges = append(fn.edges, loEdge{from: class, to: class, fromExpr: prev, toExpr: expr, pos: x.Pos()})
							}
							for h, hexpr := range held {
								if h != class {
									fn.edges = append(fn.edges, loEdge{from: h, to: class, fromExpr: hexpr, toExpr: expr, pos: x.Pos()})
								}
							}
							held[class] = expr
							fn.direct[class] = true
						} else if !deferred {
							delete(held, class)
						}
						return true
					}
				}
				if callee, ok := calleeKey(p, x); ok && len(held) > 0 {
					hs := make([]string, 0, len(held))
					for h := range held {
						hs = append(hs, h)
					}
					sort.Strings(hs)
					fn.calls = append(fn.calls, loCall{callee: callee, held: hs, pos: x.Pos()})
				} else if ok {
					fn.calls = append(fn.calls, loCall{callee: callee, pos: x.Pos()})
				}
			}
			return true
		})
	}
	walk(body, false)
}

// mutexClass resolves a Lock/Unlock receiver expression to its class
// "Type.field". Only named-struct fields whose type is (a pointer to) a
// type named Mutex or RWMutex qualify; the mutex's own spelling (e.g.
// "l.mu") comes back for self-edge precision.
func mutexClass(p *loadedPackage, recv ast.Expr) (class, expr string, ok bool) {
	t := p.Info.Types[recv].Type
	if t == nil {
		return "", "", false
	}
	name := namedTypeName(t)
	if name != "Mutex" && name != "RWMutex" {
		return "", "", false
	}
	sel, ok2 := recv.(*ast.SelectorExpr)
	if !ok2 {
		return "", "", false // function-local mutex: out of scope
	}
	baseT := p.Info.Types[sel.X].Type
	base := namedTypeName(baseT)
	if base == "" {
		return "", "", false
	}
	return base + "." + sel.Sel.Name, exprString(recv), true
}

// namedTypeName unwraps pointers and reports the named type's name.
func namedTypeName(t types.Type) string {
	if t == nil {
		return ""
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// funcKey names a declaration for the call graph: "f" for functions,
// "Type.m" for methods.
func funcKey(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}

// calleeKey resolves a call to a same-package function or method key;
// cross-package calls, func values and builtins are out of graph.
func calleeKey(p *loadedPackage, call *ast.CallExpr) (string, bool) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if fn, ok := p.Info.Uses[fun].(*types.Func); ok && fn.Pkg() == p.Types {
			return fn.Name(), true
		}
	case *ast.SelectorExpr:
		if fn, ok := p.Info.Uses[fun.Sel].(*types.Func); ok && fn.Pkg() == p.Types {
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				if base := namedTypeName(sig.Recv().Type()); base != "" {
					return base + "." + fn.Name(), true
				}
			}
			return fn.Name(), true
		}
	}
	return "", false
}

// methodName returns the selector name of a call ("" when the call is not
// a selector call), plus the receiver expression.
func methodName(call *ast.CallExpr) (string, ast.Expr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", nil
	}
	return sel.Sel.Name, sel.X
}

// exprString renders a selector chain ("l.m.mu"); non-chain shapes get
// a stable placeholder so they never equal each other.
func exprString(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	case *ast.ParenExpr:
		return exprString(x.X)
	}
	return "<expr>"
}

// reachable reports whether dst is reachable from src in the class graph.
func reachable(adj map[string]map[string]bool, src, dst string) bool {
	seen := map[string]bool{src: true}
	stack := []string{src}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n == dst {
			return true
		}
		next := make([]string, 0, len(adj[n]))
		for m := range adj[n] {
			if !seen[m] {
				seen[m] = true
				next = append(next, m)
			}
		}
		sort.Strings(next)
		stack = append(stack, next...)
	}
	return false
}
