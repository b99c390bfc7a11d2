// Command tilevet is the repo's vet tool: it runs the internal/lint
// analyzers (ownedbuf, traceguard, lockorder, goroleak, sendstats) over Go
// packages. It speaks the `go vet -vettool`
// unitchecker protocol, so the usual invocation is
//
//	go build -o /tmp/tilevet ./cmd/tilevet
//	go vet -vettool=/tmp/tilevet ./...
//
// The protocol has three entry points, all driven by cmd/go:
//
//   - tilevet -V=full            → print a version line ending in a
//     content hash of the executable, used as the vet cache key;
//   - tilevet -flags             → print a JSON description of the
//     tool's flags (none beyond the standard ones);
//   - tilevet [flags] foo.cfg    → analyze one package described by the
//     JSON config cmd/go wrote, exiting 2 if there are findings.
//
// tilevet can also be pointed at a directory of import-free Go files
// (`tilevet ./internal/lint/testdata/ownedbuf`) for quick experiments;
// full builds should go through `go vet` so imports resolve from export
// data.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"strings"

	"tilespace/internal/lint"
)

func main() {
	// The -V and -flags probes arrive before flag parsing in cmd/go's
	// protocol; handle them on the raw argument list.
	if len(os.Args) == 2 && strings.HasPrefix(os.Args[1], "-V") {
		printVersion()
		return
	}
	if len(os.Args) == 2 && os.Args[1] == "-flags" {
		fmt.Println("[]")
		return
	}

	analyzers := flag.String("analyzers", "", "comma-separated subset of analyzers to run (default all)")
	jsonOut := flag.Bool("json", false, "emit diagnostics as JSON")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: tilevet [-analyzers=a,b] <config.cfg | package-dir>...\n\nanalyzers:\n")
		for _, a := range lint.All() {
			fmt.Fprintf(os.Stderr, "  %-10s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	selected, err := lint.ByName(*analyzers)
	if err != nil {
		fatal("%v", err)
	}
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}

	exit := 0
	for _, arg := range flag.Args() {
		var diags []diagJSON
		var err error
		if strings.HasSuffix(arg, ".cfg") {
			diags, err = runConfig(arg, selected)
		} else {
			diags, err = runDir(arg, selected)
		}
		if err != nil {
			fatal("%v", err)
		}
		for _, d := range diags {
			if *jsonOut {
				enc, _ := json.Marshal(d)
				fmt.Println(string(enc))
			} else {
				fmt.Fprintf(os.Stderr, "%s: %s\n", d.Posn, d.Message)
			}
			exit = 2
		}
	}
	os.Exit(exit)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tilevet: "+format+"\n", args...)
	os.Exit(1)
}

// printVersion implements the -V=full probe: cmd/go caches vet results
// keyed on this line, so it must change whenever the tool's behavior
// could — hashing the executable itself guarantees that.
func printVersion() {
	id := "unknown"
	if exe, err := os.Executable(); err == nil {
		if data, err := os.ReadFile(exe); err == nil {
			sum := sha256.Sum256(data)
			id = fmt.Sprintf("%x", sum)
		}
	}
	fmt.Printf("tilevet version devel buildID=%s\n", id)
}

type diagJSON struct {
	Posn     string `json:"posn"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// vetConfig mirrors the JSON cmd/go writes for each vetted package.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// runConfig analyzes the single package described by a cmd/go vet config.
func runConfig(path string, analyzers []*lint.Analyzer) ([]diagJSON, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return nil, fmt.Errorf("parse vet config %s: %w", path, err)
	}

	// cmd/go expects the facts file regardless; the analyzers export no
	// facts, so an empty one satisfies downstream PackageVetx consumers.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
			return nil, fmt.Errorf("write vetx: %w", err)
		}
	}
	if cfg.VetxOnly {
		return nil, nil
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				os.Exit(0)
			}
			return nil, err
		}
		files = append(files, f)
	}

	// Imports resolve from the compiler export data cmd/go listed in
	// PackageFile, after translating source import paths through
	// ImportMap (vendoring, test variants).
	compilerImp := importer.ForCompiler(fset, cfg.Compiler, func(pkgPath string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[pkgPath]
		if !ok {
			return nil, fmt.Errorf("no package file for %q", pkgPath)
		}
		return os.Open(file)
	})
	imp := importerFunc(func(importPath string) (*types.Package, error) {
		pkgPath, ok := cfg.ImportMap[importPath]
		if !ok {
			return nil, fmt.Errorf("can't resolve import %q", importPath)
		}
		if pkgPath == "unsafe" {
			return types.Unsafe, nil
		}
		return compilerImp.Import(pkgPath)
	})

	info := newInfo()
	tc := &types.Config{
		Importer:  imp,
		Sizes:     types.SizesFor(cfg.Compiler, build.Default.GOARCH),
		GoVersion: strings.TrimSuffix(cfg.GoVersion, " X:boringcrypto"),
	}
	pkg, err := tc.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			os.Exit(0)
		}
		return nil, fmt.Errorf("typecheck %s: %w", cfg.ImportPath, err)
	}
	return collect(fset, files, pkg, info, analyzers)
}

// runDir analyzes an import-free directory of Go files (fixture mode).
func runDir(dir string, analyzers []*lint.Analyzer) ([]diagJSON, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	info := newInfo()
	tc := &types.Config{
		Importer: importerFunc(func(path string) (*types.Package, error) {
			return nil, fmt.Errorf("directory mode cannot resolve import %q; run via go vet -vettool", path)
		}),
	}
	pkg, err := tc.Check(dir, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", dir, err)
	}
	return collect(fset, files, pkg, info, analyzers)
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
}

func collect(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*lint.Analyzer) ([]diagJSON, error) {
	diags, err := lint.Run(fset, files, pkg, info, analyzers)
	if err != nil {
		return nil, err
	}
	out := make([]diagJSON, len(diags))
	for i, d := range diags {
		out[i] = diagJSON{
			Posn:     fset.Position(d.Pos).String(),
			Analyzer: d.Analyzer,
			Message:  d.Message,
		}
	}
	return out, nil
}
