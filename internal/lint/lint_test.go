package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// typecheckDir parses and type-checks one self-contained fixture package
// (fixtures import nothing, so no importer is needed).
func typecheckDir(t *testing.T, dir string) (*token.FileSet, []*ast.File, *types.Package, *types.Info) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parse %s: %v", e.Name(), err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		t.Fatalf("no fixture files in %s", dir)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{}
	pkg, err := conf.Check(dir, fset, files, info)
	if err != nil {
		t.Fatalf("typecheck %s: %v", dir, err)
	}
	return fset, files, pkg, info
}

var wantRe = regexp.MustCompile(`want "((?:[^"\\]|\\.)*)"`)

// collectWants gathers `// want "regex"` expectations keyed by file:line.
func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) map[string][]*regexp.Regexp {
	t.Helper()
	out := map[string][]*regexp.Regexp{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("bad want pattern %q: %v", m[1], err)
					}
					pos := fset.Position(c.Pos())
					key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
					out[key] = append(out[key], re)
				}
			}
		}
	}
	return out
}

// runFixture runs one analyzer over its testdata package and checks the
// diagnostics against the want comments: every finding must be expected
// (zero false positives) and every expectation met (zero false
// negatives).
func runFixture(t *testing.T, a *Analyzer) {
	t.Helper()
	fset, files, pkg, info := typecheckDir(t, filepath.Join("testdata", a.Name))
	diags, err := Run(fset, files, pkg, info, []*Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}
	wants := collectWants(t, fset, files)
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
		matched := false
		for i, re := range wants[key] {
			if re.MatchString(d.Message) {
				wants[key] = append(wants[key][:i], wants[key][i+1:]...)
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic at %s: %s", pos, d.Message)
		}
	}
	for key, res := range wants {
		for _, re := range res {
			t.Errorf("missing diagnostic at %s matching %q", key, re)
		}
	}
}

func TestLockOrderFixture(t *testing.T) { runFixture(t, LockOrder) }
