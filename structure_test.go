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
	"os"
	osexec "os/exec"
	"path"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// The static checks of this file and lockorder_test.go read the tree through
// one load: the pins below, the reachability census and LockOrder.

// listedPackage is the part of `go list -json` the loader reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string // a test variant's include its _test.go files too
	Export     string   // compiled export data, read for the standard library
	ForTest    string   // set on p [p.test], p_test [p.test] and q [p.test]
	ImportMap  map[string]string
	Standard   bool
	Module     *struct{ Path string }
}

// A loadedPackage is one listed package, parsed with comments and
// type-checked from source.
type loadedPackage struct {
	*listedPackage
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// A load is the packages of one or more modules, dependencies first. File
// names are relative to the working directory, so positions print as paths
// from the repo root.
type load struct {
	fset *token.FileSet
	pkgs []*loadedPackage
}

// loadModules runs `go list -test -deps -export -json ./...` in each module
// directory and type-checks every package it names outside the standard
// library: the non-test packages, their test variants and the dependencies
// recompiled for a test, each variant's imports resolved through its
// ImportMap. The standard library comes from the export data go list names.
func loadModules(dirs ...string) (*load, error) {
	var listed []*listedPackage
	seen := map[string]bool{}
	exports := map[string]string{}
	for _, dir := range dirs {
		cmd := osexec.Command("go", "list", "-test", "-deps", "-export", "-json", "./...")
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
			switch {
			case p.Standard:
				exports[p.ImportPath] = p.Export
			case !seen[p.ImportPath] && !strings.HasSuffix(p.ImportPath, ".test"): // not a generated test main
				seen[p.ImportPath] = true
				listed = append(listed, p)
			}
		}
	}

	l := &load{fset: token.NewFileSet()}
	std := importer.ForCompiler(l.fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	checked := map[string]*types.Package{}
	parsed := map[string]*ast.File{} // a variant shares its package's files
	cwd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for _, p := range listed {
		lp := &loadedPackage{listedPackage: p, Info: &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		}}
		for _, name := range p.GoFiles {
			name, err := filepath.Rel(cwd, filepath.Join(p.Dir, name))
			if err != nil {
				return nil, err
			}
			if parsed[name] == nil {
				if parsed[name], err = parser.ParseFile(l.fset, name, nil, parser.ParseComments|parser.SkipObjectResolution); err != nil {
					return nil, err
				}
			}
			lp.Files = append(lp.Files, parsed[name])
		}
		conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
			if id, ok := p.ImportMap[path]; ok {
				path = id
			}
			if pkg, ok := checked[path]; ok {
				return pkg, nil
			}
			return std.Import(path)
		})}
		path, _, _ := strings.Cut(p.ImportPath, " ")
		if lp.Types, err = conf.Check(path, l.fset, lp.Files, lp.Info); err != nil {
			return nil, fmt.Errorf("type-check %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = lp.Types
		l.pkgs = append(l.pkgs, lp)
	}
	return l, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

var (
	treeOnce sync.Once
	tree     *load
	treeErr  error
)

// loadTree returns the load of this module and the benchmark module, made
// once per test binary.
func loadTree(t *testing.T) *load {
	treeOnce.Do(func() { tree, treeErr = loadModules(".", "benchmark") })
	if treeErr != nil {
		t.Fatal(treeErr)
	}
	return tree
}

// A srcFile is a non-test file of this module with its package's types.
type srcFile struct {
	path string // from the repo root, slash-separated
	*ast.File
	info *types.Info
}

// moduleFiles lists the non-test files of this module, not the benchmark's.
func (l *load) moduleFiles() []srcFile {
	var files []srcFile
	for _, p := range l.pkgs {
		if p.ForTest == "" && p.Module.Path == "tilespace" {
			for _, f := range p.Files {
				files = append(files, srcFile{filepath.ToSlash(l.fset.File(f.Pos()).Name()), f, p.Info})
			}
		}
	}
	return files
}

// object returns the non-test declaration name ("Func", "Type" or
// "Type.Method") of the package at path.
func (l *load) object(t *testing.T, path, name string) types.Object {
	t.Helper()
	for _, p := range l.pkgs {
		if p.ImportPath != path {
			continue
		}
		typ, method, ok := strings.Cut(name, ".")
		obj := p.Types.Scope().Lookup(typ)
		if ok && obj != nil {
			obj, _, _ = types.LookupFieldOrMethod(types.NewPointer(obj.Type()), false, p.Types, method)
		}
		if obj != nil {
			return obj
		}
	}
	t.Fatalf("%s.%s is gone: the layering this test pins has moved", path, name)
	return nil
}

// eachUse calls fn for every identifier under n that refers to an object.
func eachUse(n ast.Node, info *types.Info, fn func(*ast.Ident, types.Object)) {
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] != nil {
			fn(id, info.Uses[id])
		}
		return true
	})
}

// TestOneCompiledProtocol pins the layering that lets the certifier and the
// simulator read the tables the executor runs: the §3.2 protocol is
// enumerated in internal/distrib only, so outside it no non-test code walks
// MinSucc except the certifier's independent CheckSchedule or asks
// HasSuccessor (codegen prints the compiled protocol's own tables), and
// neither verify nor simnet can reach into the executor — nor the executor
// into the certifier: exec runs the tables, verify proves them, and no
// run-time record of an execution goes back to verify for checking.
func TestOneCompiledProtocol(t *testing.T) {
	l := loadTree(t)
	minSucc := l.object(t, "tilespace/internal/distrib", "Distribution.MinSucc")
	hasSucc := l.object(t, "tilespace/internal/distrib", "Distribution.HasSuccessor")
	for _, f := range l.moduleFiles() {
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if p == "tilespace/internal/exec" && (strings.HasPrefix(f.path, "internal/verify/") || strings.HasPrefix(f.path, "internal/simnet/")) {
				t.Errorf("%s imports the executor", f.path)
			}
			if p == "tilespace/internal/verify" && strings.HasPrefix(f.path, "internal/exec/") {
				t.Errorf("%s imports the certifier", f.path)
			}
		}
		if strings.HasPrefix(f.path, "internal/distrib/") {
			continue
		}
		for _, decl := range f.Decls {
			name := ""
			if fn, ok := decl.(*ast.FuncDecl); ok {
				name = fn.Name.Name
			}
			eachUse(decl, f.info, func(id *ast.Ident, obj types.Object) {
				switch {
				case obj == minSucc && (f.path != "internal/verify/schedule.go" || name != "CheckSchedule"):
					t.Errorf("%s: %s walks MinSucc outside distrib and CheckSchedule", l.fset.Position(id.Pos()), name)
				case obj == hasSucc:
					t.Errorf("%s: %s calls HasSuccessor outside distrib", l.fset.Position(id.Pos()), name)
				}
			})
		}
	}
}

// TestOneRowWalkPerTile pins where the compiler and the certifier walk a
// tile's points. In internal/distrib only Distribution.scan scans a tile's
// rows, called under the tile table's per-tile Once (distrib's
// TestColdPlanScansEachTileOnce counts the scans of a cold compile); in
// internal/verify only replayer.tile walks them, and only replay calls it,
// once per tile of its ScanTiles. No other code of either package
// enumerates or counts a tile's points, so Certify walks each tile once.
func TestOneRowWalkPerTile(t *testing.T) {
	l := loadTree(t)
	walks := map[types.Object]bool{}
	for _, name := range []string{"ScanTileRows", "CountTilePoints", "TotalPoints"} {
		walks[l.object(t, "tilespace/internal/tiling", "TiledSpace."+name)] = true
	}
	tileWalk := l.object(t, "tilespace/internal/verify", "replayer.tile")
	walker := map[string]string{"internal/distrib": "scan", "internal/verify": "tile"}
	for _, f := range l.moduleFiles() {
		want, ok := walker[path.Dir(f.path)]
		if !ok {
			continue
		}
		for _, decl := range f.Decls {
			name := ""
			if fn, ok := decl.(*ast.FuncDecl); ok {
				name = fn.Name.Name
			}
			eachUse(decl, f.info, func(id *ast.Ident, obj types.Object) {
				if walks[obj] && name != want {
					t.Errorf("%s: %s walks a tile's points outside %s", l.fset.Position(id.Pos()), name, want)
				}
				if obj == tileWalk && name != "replay" {
					t.Errorf("%s: %s replays a tile outside replay", l.fset.Position(id.Pos()), name)
				}
			})
		}
	}
}

// TestRankCoreMakesNoRuntimeCall pins the executor's split into a rank
// machine and its driver: rankState holds no handle on the runtime, and the
// methods of mpi.Comm, mpi.Group and mpi.World that block on, issue to or
// account to the runtime are used in internal/exec only inside the methods
// of group, the one driver (parallel.go), which steps a block of machines.
// The machine can then be stepped by hand, or by another driver, with no
// world at all.
func TestRankCoreMakesNoRuntimeCall(t *testing.T) {
	l := loadTree(t)
	const mpi = "tilespace/internal/mpi"
	handles := map[types.Object]bool{l.object(t, mpi, "Comm"): true, l.object(t, mpi, "World"): true}
	runtimeCalls := map[types.Object]bool{}
	for _, m := range []string{
		"Comm.Recv", "Comm.SendOwned", "Comm.FlushWire",
		"Comm.NoteProgress", "Comm.TryRecvMsg", "Comm.SendLocal", "Group.Wait",
	} {
		runtimeCalls[l.object(t, mpi, m)] = true
	}
	sawState, sawDriver := false, false
	for _, f := range l.moduleFiles() {
		if path.Dir(f.path) != "internal/exec" {
			continue
		}
		for _, decl := range f.Decls {
			fn, _ := decl.(*ast.FuncDecl)
			driver := fn != nil && fn.Recv != nil && types.ExprString(fn.Recv.List[0].Type) == "*group" && f.path == "internal/exec/parallel.go"
			sawDriver = sawDriver || driver
			ast.Inspect(decl, func(n ast.Node) bool {
				if ts, ok := n.(*ast.TypeSpec); ok && ts.Name.Name == "rankState" {
					sawState = true
					eachUse(ts.Type, f.info, func(id *ast.Ident, obj types.Object) {
						if handles[obj] {
							t.Errorf("%s: rankState holds a runtime handle (mpi.%s)", l.fset.Position(id.Pos()), id.Name)
						}
					})
				}
				return true
			})
			eachUse(decl, f.info, func(id *ast.Ident, obj types.Object) {
				if runtimeCalls[obj] && !driver {
					t.Errorf("%s: runtime call %s outside the driver (group's methods)", l.fset.Position(id.Pos()), id.Name)
				}
			})
		}
	}
	if !sawState || !sawDriver {
		t.Fatalf("found rankState %v, group's methods %v: the layering this test pins has moved", sawState, sawDriver)
	}
}

// TestExecNeverWaits pins that a rank never sleeps and the executor has one
// receive path: no non-test internal/exec code uses time.Sleep or a runtime
// call that holds its goroutine on its own — Comm.Send, which sleeps out its
// wire cost, or Comm.Recv and Comm.Barrier, which wait for a peer. A rank
// claims only what has arrived (Comm.TryRecvMsg), its modelled time is a
// deadline its group steps around, and all waiting is the group's, in
// mpi.Group.Wait — so a rank folded with others stalls none of them.
func TestExecNeverWaits(t *testing.T) {
	l := loadTree(t)
	const mpi = "tilespace/internal/mpi"
	blocking := map[types.Object]bool{}
	for _, m := range []string{"Comm.Send", "Comm.Recv", "Comm.Barrier"} {
		blocking[l.object(t, mpi, m)] = true
	}
	tryRecv, wait := l.object(t, mpi, "Comm.TryRecvMsg"), l.object(t, mpi, "Group.Wait")
	uses := map[types.Object]int{}
	for _, f := range l.moduleFiles() {
		if path.Dir(f.path) != "internal/exec" {
			continue
		}
		eachUse(f.File, f.info, func(id *ast.Ident, obj types.Object) {
			uses[obj]++
			if pkg := obj.Pkg(); blocking[obj] || pkg != nil && pkg.Path() == "time" && obj.Name() == "Sleep" {
				t.Errorf("%s: the executor waits in %s", l.fset.Position(id.Pos()), id.Name)
			}
		})
	}
	if uses[tryRecv] != 1 || uses[wait] != 1 {
		t.Errorf("the executor calls TryRecvMsg %d times and Group.Wait %d times, want one receive and one wait", uses[tryRecv], uses[wait])
	}
}

// TestOneKernelText pins that the loop body is written once: no non-test Go
// holds C kernel text (a dependence read R0[…] or an `out[0] =` store) but
// internal/apps, whose Coef and Initial C forms sit beside the Go functions
// they mirror. Every other kernel's C is printed from the statement the
// executor runs (exec.Kernel.C). The benchmark module is not read: it
// still hands codegen kernel text of its own.
func TestOneKernelText(t *testing.T) {
	l := loadTree(t)
	for _, f := range l.moduleFiles() {
		if strings.HasPrefix(f.path, "internal/apps/") {
			continue
		}
		ast.Inspect(f.File, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if s, err := strconv.Unquote(lit.Value); err == nil && (strings.Contains(s, "R0[") || strings.Contains(s, "out[0] =")) {
					t.Errorf("%s: C kernel text %q", l.fset.Position(lit.Pos()), s)
				}
			}
			return true
		})
	}
}

// goStmts calls fn for every go statement in the non-test files of the
// package in dir, with the function declaration it sits in, and returns how
// many files it read.
func goStmts(l *load, dir string, fn func(f srcFile, decl ast.Decl, g *ast.GoStmt)) int {
	read := 0
	for _, f := range l.moduleFiles() {
		if path.Dir(f.path) != dir {
			continue
		}
		read++
		for _, decl := range f.Decls {
			ast.Inspect(decl, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					fn(f, decl, g)
				}
				return true
			})
		}
	}
	return read
}

// TestExecSpawnsNoGoroutine pins that the executor has one level of
// parallelism: no non-test file of internal/exec holds a go statement, so
// every goroutine of a run is a group of ranks started by
// mpi.World.RunGroups, and a rank sweeps its tiles' rows itself.
func TestExecSpawnsNoGoroutine(t *testing.T) {
	l := loadTree(t)
	read := goStmts(l, "internal/exec", func(_ srcFile, _ ast.Decl, g *ast.GoStmt) {
		t.Errorf("%s: go statement in the executor", l.fset.Position(g.Pos()))
	})
	if read == 0 {
		t.Fatal("no executor source found")
	}
}

// TestMPISpawnsOnlyRanks pins that a send is on the wire when it is issued:
// outside the TCP mesh's own socket goroutines, non-test internal/mpi holds
// exactly one go statement, World.RunGroups' group goroutine. No rank has a
// background sender, so a wire cost is a due time, never a sleeping
// goroutine.
func TestMPISpawnsOnlyRanks(t *testing.T) {
	l := loadTree(t)
	var spawns []string
	goStmts(l, "internal/mpi", func(f srcFile, decl ast.Decl, g *ast.GoStmt) {
		if f.path == "internal/mpi/tcp.go" {
			return
		}
		if fn, _ := decl.(*ast.FuncDecl); fn == nil || fn.Name.Name != "RunGroups" {
			t.Errorf("%s: go statement outside RunGroups", l.fset.Position(g.Pos()))
		}
		spawns = append(spawns, l.fset.Position(g.Pos()).String())
	})
	if len(spawns) != 1 {
		t.Errorf("internal/mpi outside tcp.go spawns at %v, want exactly RunGroups' group goroutine", spawns)
	}
}

// TestExecMPILineGate pins the standing line gate: the non-test Go of
// internal/exec and internal/mpi together stays within 4900 lines, so code
// added to the executor or the runtime is paid for in code.
func TestExecMPILineGate(t *testing.T) {
	const gate = 4900
	lines := 0
	for _, dir := range []string{"internal/exec", "internal/mpi"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("%s: no Go source (%v)", dir, err)
		}
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			lines += bytes.Count(src, []byte("\n"))
		}
	}
	if lines > gate {
		t.Errorf("non-test internal/exec + internal/mpi is %d lines, the gate %d", lines, gate)
	}
}

// TestOneCompileDriver pins that the pipeline nest → H → tiled space →
// program → certificate and C is wired once, in internal/compile: no other
// non-test code uses tiling.Analyze, exec.NewProgram, verify.Certify or
// codegen.New — called, or taken as a value — and none but the driver and
// the executor uses distrib.New. Every entry point then shares one order,
// one set of defaults and one error wrapping. The benchmark module is not
// read: it times the stages one by one.
func TestOneCompileDriver(t *testing.T) {
	l := loadTree(t)
	stages := map[string]string{ // stage -> the directories that may use it
		"tiling.Analyze":  "internal/compile",
		"exec.NewProgram": "internal/compile",
		"verify.Certify":  "internal/compile",
		"codegen.New":     "internal/compile",
		"distrib.New":     "internal/compile internal/exec",
	}
	stageOf := map[types.Object]string{}
	for stage := range stages {
		pkg, name, _ := strings.Cut(stage, ".")
		stageOf[l.object(t, "tilespace/internal/"+pkg, name)] = stage
	}
	inDriver := map[string]bool{}
	for _, f := range l.moduleFiles() {
		dir := path.Dir(f.path)
		eachUse(f.File, f.info, func(id *ast.Ident, obj types.Object) {
			stage, ok := stageOf[obj]
			if !ok {
				return
			}
			if !strings.Contains(" "+stages[stage]+" ", " "+dir+" ") {
				t.Errorf("%s: %s outside the compile driver (internal/compile)", l.fset.Position(id.Pos()), stage)
			}
			if dir == "internal/compile" {
				inDriver[stage] = true
			}
		})
	}
	for _, stage := range sortedKeys(stages) {
		if !inDriver[stage] {
			t.Errorf("the driver does not call %s: the layering this test pins has moved", stage)
		}
	}
}

// censusAllowed names the library declarations that no non-test code
// reaches but that stay, each with the reason it stays.
var censusAllowed = map[string]string{
	// Interface satisfiers the census cannot see through.
	"tiling.OverflowError.Unwrap": "errors.As calls it through interface{ Unwrap() error }, a literal inside package errors that export data does not carry; tiling's TestDiagOverflow unwraps the rat.Overflow",

	// Test-only names used from another package's tests.
	"exec.Kernel.Row":                   "the row-wise statement evaluator the executor runs over a TTIS row, exposed for exec's TestStatementRowsMatchPoints and FuzzStmt, which check it against the tree walk bit for bit, and frontend's FuzzParse and kernel tests, which run it at rows of n and of one point",
	"distrib.Distribution.CompileSteps": "the plan compiler's work counter, read by distrib's TestOneRankCompilesOneRank and TestScheduleLevelAgreesWithAddressLevel, exec's TestPlanCacheSharing, TestInitPhasePlannedZeroAlloc, TestNewProgramDoesNoPlanWork and TestCertifyThenRunCompilesOnce, and verify's TestCertifyRejectsForeignSpace",
	"procrun.WriteRendezvous":           "the launcher half of the rendezvous file: cmd/tilerankd's end-to-end tests write it for the rank processes they start, and procrun's TestRendezvousRoundTrip and TestRendezvousRejectsGaps read it back with ReadRendezvous",
	"procrun.Merge":                     "the launcher half of a multi-process run: cmd/tilerankd's TestRankdEndToEnd and TestRankdKillRelaunchRecovers and exec's TestRelaunchFromSnapshot merge rank fragments with it, and procrun's TestSplitMergeRoundTrip and TestMergeRejectsMissingAndDuplicate pin it",
}

// TestEveryDeclarationReachable pins that every declaration of a library
// package — internal/ and the root facade alike — has a non-test caller. It
// runs on the non-test packages of this module and of the benchmark module
// (the load fails on a type error in either, so a root change that deletes
// a name the benchmark spells fails here too) and follows every use from
// the roots: every declaration of a main package (cmd, examples, the
// benchmark), every init and every package-level var. A facade name then
// stays only while a program calls it. A declaration that only tests reach
// moves into its package's _test.go or goes; censusAllowed holds the rest,
// each with its reason.
func TestEveryDeclarationReachable(t *testing.T) {
	got := unreachedDecls(loadTree(t))
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
// function, a dead chain A → B, a String method on a live type, and a
// library outside internal/ with one export main calls and one it does not.
func TestCensusFixture(t *testing.T) {
	l, err := loadModules("testdata/census")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"facade.Uncalled", "lib.A", "lib.B", "lib.TestOnly", "lib.unused"}
	if keys := sortedKeys(unreachedDecls(l)); !reflect.DeepEqual(keys, want) {
		t.Errorf("census of the fixture reports %v, want %v", keys, want)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// unreachedDecls returns every package-level declaration of a non-main
// package that no root of the load's non-test packages reaches, keyed
// "pkg.Name" or "pkg.Type.Method" with its file:line; pkg is the import path
// relative to the module and to its internal/, or the package name for the
// module's root package.
//
// The roots are every declaration of a main package, every init and every
// package-level var (its initializer runs at import). A declaration reaches
// each package-level object or method it names (generic instances by their
// origin). A method is also reached when its receiver type is, if its name
// is a method of some interface type in the loaded program, standard
// library included: String, Error, ServeHTTP and the like are called
// through an interface no use names.
func unreachedDecls(l *load) map[string]string {
	var roots []types.Object
	uses := map[types.Object][]types.Object{} // declaration -> what it names
	methods := map[*types.TypeName][]types.Object{}
	library := map[types.Object]string{} // declarations of non-main packages -> key
	ifaceNames := map[string]bool{}
	addIface := func(typ types.Type) {
		if it, ok := typ.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				ifaceNames[it.Method(i).Name()] = true
			}
		}
	}
	var checked []*types.Package
	for _, p := range l.pkgs {
		if p.ForTest != "" {
			continue
		}
		pkg, info := p.Types, p.Info
		checked = append(checked, pkg)
		for _, tv := range info.Types {
			if tv.Type != nil {
				addIface(tv.Type)
			}
		}

		isMain := pkg.Name() == "main"
		key := pkg.Name() // the module's root package
		if p.Module != nil && pkg.Path() != p.Module.Path {
			key = strings.TrimPrefix(strings.TrimPrefix(pkg.Path(), p.Module.Path+"/"), "internal/")
		}
		named := func(n ast.Node) []types.Object {
			var objs []types.Object
			eachUse(n, info, func(_ *ast.Ident, obj types.Object) {
				switch obj := obj.(type) {
				case *types.Func:
					objs = append(objs, obj.Origin())
				case *types.Var:
					objs = append(objs, obj.Origin())
				case *types.Const, *types.TypeName:
					objs = append(objs, obj)
				}
			})
			return objs
		}
		declare := func(id *ast.Ident, n ast.Node, name string, root bool) {
			obj := info.Defs[id]
			if obj == nil || id.Name == "_" || id.Name == "init" {
				roots = append(roots, named(n)...)
				return
			}
			uses[obj] = named(n)
			if root || isMain {
				roots = append(roots, obj)
			} else {
				library[obj] = key + "." + name
			}
		}
		for _, f := range p.Files {
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
	dead := map[string]string{}
	for obj, key := range library {
		if !reached[obj] {
			pos := l.fset.Position(obj.Pos())
			dead[key] = fmt.Sprintf("%s:%d", filepath.ToSlash(pos.Filename), pos.Line)
		}
	}
	return dead
}
