// Package lint is a self-contained go/analysis-style framework plus the
// repo-specific analyzers enforced by cmd/tilevet. It exists because the
// runtime invariants the executor relies on — buffer ownership after
// SendOwned/IsendOwned, nil-guarded tracer access, mutex order, goroutine
// teardown — are documented in comments but invisible to go vet.
// The framework mirrors golang.org/x/tools/go/analysis (Analyzer, Pass,
// Diagnostic) using only the standard library, so it runs in hermetic
// builds with no module downloads; cmd/tilevet adapts it to the `go vet
// -vettool` unitchecker protocol.
//
// Suppression: a comment `//lint:ignore name1,name2 reason` suppresses
// matching diagnostics on its own line and on the line directly below
// (the staticcheck convention, so existing `//lint:ignore SA…` directives
// keep working and can name these analyzers too).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Pass carries one package's parsed and type-checked representation
// through an analyzer run.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	analyzer string
	report   func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Analyzer: p.analyzer, Message: fmt.Sprintf(format, args...)})
}

// Analyzer is one named check over a package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// All returns every analyzer tilevet enforces.
func All() []*Analyzer {
	return []*Analyzer{OwnedBuf, TraceGuard, LockOrder, GoroLeak, SendStats}
}

// ByName resolves a comma-separated analyzer list ("" means all).
func ByName(names string) ([]*Analyzer, error) {
	if names == "" {
		return All(), nil
	}
	var out []*Analyzer
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		found := false
		for _, a := range All() {
			if a.Name == name {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("lint: unknown analyzer %q", name)
		}
	}
	return out, nil
}

// Run executes the analyzers over one type-checked package and returns
// the surviving diagnostics sorted by position, with //lint:ignore
// directives applied.
func Run(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer) ([]Diagnostic, error) {
	ignored := ignoreDirectives(fset, files)
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Fset: fset, Files: files, Pkg: pkg, Info: info,
			analyzer: a.Name,
			report: func(d Diagnostic) {
				pos := fset.Position(d.Pos)
				if names, ok := ignored[ignoreKey{pos.Filename, pos.Line}]; ok && names[d.Analyzer] {
					return
				}
				diags = append(diags, d)
			},
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("lint: %s: %w", a.Name, err)
		}
	}
	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags, nil
}

type ignoreKey struct {
	file string
	line int
}

// ignoreDirectives collects //lint:ignore comments: the named analyzers
// are suppressed on the directive's line and the following line.
func ignoreDirectives(fset *token.FileSet, files []*ast.File) map[ignoreKey]map[string]bool {
	out := map[ignoreKey]map[string]bool{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				if !strings.HasPrefix(text, "lint:ignore ") {
					continue
				}
				fields := strings.Fields(strings.TrimPrefix(text, "lint:ignore "))
				if len(fields) == 0 {
					continue
				}
				names := map[string]bool{}
				for _, n := range strings.Split(fields[0], ",") {
					names[n] = true
				}
				pos := fset.Position(c.Pos())
				for _, line := range []int{pos.Line, pos.Line + 1} {
					key := ignoreKey{pos.Filename, line}
					if out[key] == nil {
						out[key] = map[string]bool{}
					}
					for n := range names {
						out[key][n] = true
					}
				}
			}
		}
	}
	return out
}

// funcBodies yields every function body in the files — declarations and
// literals — with the enclosing receiver name ("" for non-methods and
// literals inside non-methods).
func funcBodies(files []*ast.File, fn func(body *ast.BlockStmt, recv string)) {
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			recv := ""
			if fd.Recv != nil && len(fd.Recv.List) == 1 && len(fd.Recv.List[0].Names) == 1 {
				recv = fd.Recv.List[0].Names[0].Name
			}
			fn(fd.Body, recv)
		}
	}
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
