package tilespace

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestOneCompiledProtocol pins the layering that lets the certifier and the
// simulator read the tables the executor runs: the §3.2 protocol is
// enumerated in internal/distrib only, so outside it no non-test code walks
// MinSucc except the certifier's independent CheckSchedule or asks
// HasSuccessor (codegen prints the compiled protocol's own tables), and
// neither verify nor simnet can reach into the executor — nor the executor
// into the certifier: exec runs the tables, verify proves them, and no
// run-time record of an execution goes back to verify for checking.
func TestOneCompiledProtocol(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if path == "benchmark" || (path != "." && strings.HasPrefix(e.Name(), ".")) {
				return filepath.SkipDir // its own module; build leftovers
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		path = filepath.ToSlash(path)
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if p == "tilespace/internal/exec" && (strings.HasPrefix(path, "internal/verify/") || strings.HasPrefix(path, "internal/simnet/")) {
				t.Errorf("%s imports the executor", path)
			}
			if p == "tilespace/internal/verify" && strings.HasPrefix(path, "internal/exec/") {
				t.Errorf("%s imports the certifier", path)
			}
		}
		if strings.HasPrefix(path, "internal/distrib/") {
			return nil
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			ast.Inspect(fn, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				switch sel.Sel.Name {
				case "MinSucc":
					if path != "internal/verify/schedule.go" || fn.Name.Name != "CheckSchedule" {
						t.Errorf("%s: %s walks MinSucc outside distrib and CheckSchedule", fset.Position(call.Pos()), fn.Name.Name)
					}
				case "HasSuccessor":
					t.Errorf("%s: %s calls HasSuccessor outside distrib", fset.Position(call.Pos()), fn.Name.Name)
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRankCoreMakesNoRuntimeCall pins the executor's split into a rank
// machine and its driver: rankState holds no handle on the runtime, and the
// calls that block on, issue to or account to the runtime appear in
// internal/exec only inside runRank, the one driver loop. The machine can
// then be stepped by hand, or by another driver, with no world at all.
func TestRankCoreMakesNoRuntimeCall(t *testing.T) {
	runtimeCalls := map[string]bool{
		"Recv": true, "RecvMsg": true, "SendOwned": true, "IsendOwned": true,
		"WaitSends": true, "FlushWire": true, "FaultSleep": true,
		"PendingSends": true, "NoteProgress": true,
	}
	files, err := filepath.Glob("internal/exec/*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	sawState, sawDriver := false, false
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		path = filepath.ToSlash(path)
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			driver := false
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Name.Name == "runRank" && path == "internal/exec/parallel.go" {
				driver, sawDriver = true, true
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.TypeSpec:
					st, ok := n.Type.(*ast.StructType)
					if !ok || n.Name.Name != "rankState" {
						return true
					}
					sawState = true
					for _, field := range st.Fields.List {
						ast.Inspect(field.Type, func(m ast.Node) bool {
							if sel, ok := m.(*ast.SelectorExpr); ok {
								if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "mpi" && (sel.Sel.Name == "Comm" || sel.Sel.Name == "World") {
									t.Errorf("%s: rankState holds a runtime handle (mpi.%s)", fset.Position(field.Pos()), sel.Sel.Name)
								}
							}
							return true
						})
					}
				case *ast.CallExpr:
					if sel, ok := n.Fun.(*ast.SelectorExpr); ok && runtimeCalls[sel.Sel.Name] && !driver {
						t.Errorf("%s: runtime call %s outside the driver (runRank)", fset.Position(n.Pos()), sel.Sel.Name)
					}
				}
				return true
			})
		}
	}
	if !sawState || !sawDriver {
		t.Fatalf("found rankState %v, runRank %v: the layering this test pins has moved", sawState, sawDriver)
	}
}

// TestOneKernelText pins that the loop body is written once: no non-test Go
// holds C kernel text (a dependence read R0[…] or an `out[0] =` store) but
// internal/apps, whose Coef and Initial C forms sit beside the Go functions
// they mirror. Every other kernel's C is printed from the statement the
// executor runs (exec.Kernel.C). The benchmark module is not walked: it
// still hands codegen kernel text of its own.
func TestOneKernelText(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		path = filepath.ToSlash(path)
		if e.IsDir() {
			if path == "benchmark" || path == "internal/apps" || (path != "." && strings.HasPrefix(e.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if s, err := strconv.Unquote(lit.Value); err == nil && (strings.Contains(s, "R0[") || strings.Contains(s, "out[0] =")) {
					t.Errorf("%s: C kernel text %q", fset.Position(lit.Pos()), s)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestExecSpawnsNoGoroutine pins that the executor has one level of
// parallelism: no non-test file of internal/exec holds a go statement, so
// every goroutine of a run is a rank started by mpi.World.RunE, and a rank
// sweeps its tiles' rows itself.
func TestExecSpawnsNoGoroutine(t *testing.T) {
	files, err := filepath.Glob("internal/exec/*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	parsed := 0
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		parsed++
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				t.Errorf("%s: go statement in the executor", fset.Position(g.Pos()))
			}
			return true
		})
	}
	if parsed == 0 {
		t.Fatal("no executor source found")
	}
}

// TestMPISpawnsOnlyRanks pins that a send is on the wire when it is issued:
// outside the TCP mesh's own socket goroutines, non-test internal/mpi holds
// exactly one go statement, World.RunE's rank goroutine. No rank has a
// background sender, so a wire cost is a due time, never a sleeping
// goroutine.
func TestMPISpawnsOnlyRanks(t *testing.T) {
	files, err := filepath.Glob("internal/mpi/*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var spawns []string
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") || filepath.Base(path) == "tcp.go" {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			ast.Inspect(decl, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					fn, _ := decl.(*ast.FuncDecl)
					if fn == nil || fn.Name.Name != "RunE" {
						t.Errorf("%s: go statement outside RunE", fset.Position(g.Pos()))
					}
					spawns = append(spawns, fset.Position(g.Pos()).String())
				}
				return true
			})
		}
	}
	if len(spawns) != 1 {
		t.Errorf("internal/mpi outside tcp.go spawns at %v, want exactly RunE's rank goroutine", spawns)
	}
}

// TestOneCompileDriver pins that the pipeline nest → H → tiled space →
// program → certificate and C is wired once, in internal/compile: no other
// non-test code calls tiling.Analyze, exec.NewProgram, verify.Certify or
// codegen.New, and none but the driver and the executor calls distrib.New.
// Every entry point then shares one order, one set of defaults and one
// error wrapping. The benchmark module is not walked: it times the stages
// one by one.
func TestOneCompileDriver(t *testing.T) {
	stages := map[string]string{ // import path + "." + func -> where it may be called
		"tilespace/internal/tiling.Analyze":  "internal/compile/",
		"tilespace/internal/exec.NewProgram": "internal/compile/",
		"tilespace/internal/verify.Certify":  "internal/compile/",
		"tilespace/internal/codegen.New":     "internal/compile/",
		"tilespace/internal/distrib.New":     "internal/compile/ internal/exec/",
	}
	inDriver := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		path = filepath.ToSlash(path)
		if e.IsDir() {
			if path == "benchmark" || (path != "." && strings.HasPrefix(e.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		imports := map[string]string{} // local name -> import path
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			name := p[strings.LastIndex(p, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = p
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			stage := imports[pkg.Name] + "." + sel.Sel.Name
			allowed, ok := stages[stage]
			if !ok {
				return true
			}
			dir := path[:strings.LastIndex(path, "/")+1]
			if !strings.Contains(" "+allowed+" ", " "+dir+" ") {
				t.Errorf("%s: %s.%s outside the compile driver (internal/compile)", fset.Position(call.Pos()), pkg.Name, sel.Sel.Name)
			}
			if dir == "internal/compile/" {
				inDriver[stage] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for stage := range stages {
		if !inDriver[stage] {
			t.Errorf("the driver does not call %s: the layering this test pins has moved", stage)
		}
	}
}
