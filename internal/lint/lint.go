// Package lint is a self-contained go/analysis-style framework plus the
// repo-specific analyzer enforced by cmd/tilevet: LockOrder, which flags
// cyclic mutex acquisition orders. It catches a bug class the test suite
// and the race detector both miss: an ABBA between two of the TCP mesh's
// mutexes (TCPMesh.mu and outLink.mu) passes the mpi tests, -race
// included, since a deadlock needs the two paths to interleave.
// The framework mirrors golang.org/x/tools/go/analysis (Analyzer, Pass,
// Diagnostic) using only the standard library, so it runs in hermetic
// builds with no module downloads; cmd/tilevet adapts it to the `go vet
// -vettool` unitchecker protocol.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Pass carries one package's parsed and type-checked representation
// through an analyzer run.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	diags []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Analyzer is one named check over a package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// All returns every analyzer tilevet enforces.
func All() []*Analyzer {
	return []*Analyzer{LockOrder}
}

// Run executes the analyzers over one type-checked package and returns
// their diagnostics sorted by position.
func Run(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer) ([]Diagnostic, error) {
	pass := &Pass{Fset: fset, Files: files, Pkg: pkg, Info: info}
	for _, a := range analyzers {
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("lint: %s: %w", a.Name, err)
		}
	}
	sort.Slice(pass.diags, func(i, j int) bool { return pass.diags[i].Pos < pass.diags[j].Pos })
	return pass.diags, nil
}
