// Command tilevet is the repo's vet tool: it runs the internal/lint
// analyzer (lockorder) over Go packages. It speaks the `go vet -vettool`
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
//   - tilevet foo.cfg            → analyze one package described by the
//     JSON config cmd/go wrote, exiting 2 if there are findings.
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

	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: go vet -vettool=/path/to/tilevet ./...  (or tilevet <config.cfg>...)\n\nanalyzers:\n")
		for _, a := range lint.All() {
			fmt.Fprintf(os.Stderr, "  %-10s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}

	exit := 0
	for _, cfg := range flag.Args() {
		findings, err := runConfig(cfg)
		if err != nil {
			fatal("%v", err)
		}
		for _, f := range findings {
			fmt.Fprintln(os.Stderr, f)
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

// vetConfig is the part tilevet reads of the JSON cmd/go writes for each
// vetted package.
type vetConfig struct {
	Compiler                  string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// runConfig analyzes the single package described by a cmd/go vet config
// and returns its findings as "file:line:col: message" lines.
func runConfig(path string) ([]string, error) {
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

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
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
	diags, err := lint.Run(fset, files, pkg, info, lint.All())
	if err != nil {
		return nil, err
	}
	out := make([]string, len(diags))
	for i, d := range diags {
		out[i] = fmt.Sprintf("%s: %s", fset.Position(d.Pos), d.Message)
	}
	return out, nil
}
