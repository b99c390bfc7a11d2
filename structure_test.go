package tilespace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	osexec "os/exec"
	"path/filepath"
	"reflect"
	"sort"
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

// censusAllowed names the declarations under internal/ that no non-test
// code reaches but that stay, each with the reason it stays.
var censusAllowed = map[string]string{
	// Interface satisfiers the census cannot see through.
	"tiling.OverflowError.Unwrap": "errors.As calls it through interface{ Unwrap() error }, a literal inside package errors that export data does not carry; tiling's TestDiagOverflow unwraps the rat.Overflow",

	// Test-only names used from another package's tests.
	"exec.Kernel.Row":                   "the row-wise statement evaluator the executor runs over a TTIS row, exposed for exec's TestStatementRowsMatchPoints and FuzzStmt and frontend's FuzzParse, which check it against Kernel.Point bit for bit",
	"distrib.Distribution.CompileSteps": "the plan compiler's work counter, read by distrib's TestOneRankCompilesOneRank and TestScheduleLevelAgreesWithAddressLevel, exec's TestPlanCacheSharing, TestInitPhasePlannedZeroAlloc, TestNewProgramDoesNoPlanWork and TestCertifyThenRunCompilesOnce, and verify's TestCertifyRejectsForeignSpace",
	"procrun.WriteRendezvous":           "the launcher half of the rendezvous file: cmd/tilerankd's end-to-end tests write it for the rank processes they start, and procrun's TestRendezvousRoundTrip and TestRendezvousRejectsGaps read it back with ReadRendezvous",
	"procrun.Merge":                     "the launcher half of a multi-process run: cmd/tilerankd's TestRankdEndToEnd and TestRankdKillRelaunchRecovers and exec's TestRelaunchFromSnapshot merge rank fragments with it, and procrun's TestSplitMergeRoundTrip and TestMergeRejectsMissingAndDuplicate pin it",
}

// TestEveryDeclarationReachable pins that every declaration under
// internal/ has a non-test caller. It loads the non-test packages of this
// module and of the benchmark module, type-checks them (a type error in
// either fails the test, so a root change that deletes a name the
// benchmark spells fails here too) and follows every use from the roots:
// every declaration outside tilespace/internal/ (cmd, examples, the facade,
// the benchmark), every init and every package-level var. A declaration
// that only tests reach moves into its package's _test.go or goes;
// censusAllowed holds the rest, each with its reason.
func TestEveryDeclarationReachable(t *testing.T) {
	got, err := unreachedDecls(".", "benchmark")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range sortedKeys(got) {
		if _, ok := censusAllowed[name]; !ok {
			t.Errorf("%s: %s has no non-test caller", got[name], name)
		}
	}
	for _, name := range sortedKeys(censusAllowed) {
		if _, ok := got[name]; !ok {
			t.Errorf("censusAllowed names %s, which is now reached or gone", name)
		}
	}
}

// TestCensusFixture runs the census on testdata/census, a module of its own
// with one live function, an export that only a test uses, an unused
// function, a dead chain A → B and a String method on a live type.
func TestCensusFixture(t *testing.T) {
	got, err := unreachedDecls("testdata/census")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"lib.A", "lib.B", "lib.TestOnly", "lib.unused"}
	if keys := sortedKeys(got); !reflect.DeepEqual(keys, want) {
		t.Errorf("census of the fixture reports %v, want %v", keys, want)
	}
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// listedPackage is the part of `go list -json` the census reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Standard   bool
	Module     *struct{ Path string }
}

// unreachedDecls loads the non-test packages that `go list -deps ./...`
// names in each module directory, type-checks them from source (the
// standard library from export data), and returns every package-level
// declaration under a module's internal/ tree that no root reaches, keyed
// "pkg.Name" or "pkg.Type.Method" (pkg relative to internal/) with its
// file:line.
//
// The roots are every declaration outside internal/, every init and every
// package-level var (its initializer runs at import). A declaration reaches
// each package-level object or method it names (generic instances by their
// origin). A method is also reached when its receiver type is, if its name
// is a method of some interface type in the loaded program, standard
// library included: String, Error, ServeHTTP and the like are called
// through an interface no use names.
func unreachedDecls(dirs ...string) (map[string]string, error) {
	var pkgs []*listedPackage
	seen := map[string]bool{}
	for _, dir := range dirs {
		cmd := osexec.Command("go", "list", "-json", "-deps", "./...")
		cmd.Dir = dir
		cmd.Stderr = new(bytes.Buffer)
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, cmd.Stderr)
		}
		for dec := json.NewDecoder(bytes.NewReader(out)); ; {
			p := new(listedPackage)
			if err := dec.Decode(p); err == io.EOF {
				break
			} else if err != nil {
				return nil, err
			}
			if !p.Standard && !seen[p.ImportPath] {
				seen[p.ImportPath] = true
				pkgs = append(pkgs, p) // -deps lists dependencies first
			}
		}
	}

	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "gc", nil)
	checked := map[string]*types.Package{}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})}

	var roots []types.Object
	uses := map[types.Object][]types.Object{} // declaration -> what it names
	methods := map[*types.TypeName][]types.Object{}
	internal := map[types.Object]string{} // declarations under internal/ -> key
	ifaceNames := map[string]bool{}
	addIface := func(typ types.Type) {
		if it, ok := typ.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				ifaceNames[it.Method(i).Name()] = true
			}
		}
	}
	for _, p := range pkgs {
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		}
		pkg, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("type-check %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = pkg
		for _, tv := range info.Types {
			if tv.Type != nil {
				addIface(tv.Type)
			}
		}

		prefix := ""
		if p.Module != nil && strings.HasPrefix(p.ImportPath+"/", p.Module.Path+"/internal/") {
			prefix = p.Module.Path + "/internal/"
		}
		named := func(n ast.Node) []types.Object {
			var objs []types.Object
			ast.Inspect(n, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					switch obj := info.Uses[id].(type) {
					case *types.Func:
						objs = append(objs, obj.Origin())
					case *types.Var:
						objs = append(objs, obj.Origin())
					case *types.Const, *types.TypeName:
						objs = append(objs, obj)
					}
				}
				return true
			})
			return objs
		}
		declare := func(id *ast.Ident, n ast.Node, key string, root bool) {
			obj := info.Defs[id]
			if obj == nil || id.Name == "_" || id.Name == "init" {
				roots = append(roots, named(n)...)
				return
			}
			uses[obj] = named(n)
			if root || prefix == "" {
				roots = append(roots, obj)
			} else {
				internal[obj] = strings.TrimPrefix(pkg.Path(), prefix) + "." + key
			}
		}
		for _, f := range files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						declare(d.Name, d, d.Name.Name, false)
						continue
					}
					m := info.Defs[d.Name]
					recv := m.Type().(*types.Signature).Recv().Type()
					if ptr, ok := recv.(*types.Pointer); ok {
						recv = ptr.Elem()
					}
					typ := recv.(*types.Named).Origin().Obj()
					declare(d.Name, d, typ.Name()+"."+d.Name.Name, false)
					methods[typ] = append(methods[typ], m)
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							declare(s.Name, s, s.Name.Name, false)
						case *ast.ValueSpec:
							for _, id := range s.Names {
								declare(id, s, id.Name, d.Tok == token.VAR)
							}
						}
					}
				}
			}
		}
	}
	// Interfaces of the standard library the program imports, directly or not.
	stdSeen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(p *types.Package) {
		if stdSeen[p] {
			return
		}
		stdSeen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for _, p := range checked {
		walk(p)
	}

	reached := map[types.Object]bool{}
	queue := roots
	for len(queue) > 0 {
		obj := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if reached[obj] {
			continue
		}
		reached[obj] = true
		queue = append(queue, uses[obj]...)
		if tn, ok := obj.(*types.TypeName); ok {
			for _, m := range methods[tn] {
				if ifaceNames[m.Name()] {
					queue = append(queue, m)
				}
			}
		}
	}
	cwd, _ := os.Getwd()
	dead := map[string]string{}
	for obj, key := range internal {
		if !reached[obj] {
			pos := fset.Position(obj.Pos())
			if rel, err := filepath.Rel(cwd, pos.Filename); err == nil {
				pos.Filename = filepath.ToSlash(rel)
			}
			dead[key] = fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
		}
	}
	return dead, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
