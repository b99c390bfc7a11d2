package main

import (
	"errors"
	"os"
	osexec "os/exec"
	"path/filepath"
	"strings"
	"testing"

	"tilespace/internal/codegen"
	"tilespace/internal/exec"
)

// generate emits the C program tilec writes for prog.
func generate(prog *exec.Program, opts codegen.Options) (string, error) {
	g, err := codegen.New(prog.Dist, opts)
	if err != nil {
		return "", err
	}
	return g.Generate(), nil
}

func TestParseInts(t *testing.T) {
	got := parseInts("1, 2,3")
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Errorf("parseInts = %v", got)
	}
	if parseInts("") != nil {
		t.Error("empty string should give nil")
	}
}

func TestFromBuiltinAll(t *testing.T) {
	cases := []struct {
		app     string
		space   []int64
		factors []int64
		family  string
	}{
		{"sor", []int64{12, 24}, []int64{6, 10, 8}, "rect"},
		{"sor", []int64{12, 24}, []int64{6, 10, 8}, "nr"},
		{"jacobi", []int64{8, 16}, []int64{2, 6, 6}, "rect"},
		{"jacobi", []int64{8, 16}, []int64{2, 6, 6}, "nr"},
		{"adi", []int64{8, 16}, []int64{2, 4, 4}, "rect"},
		{"adi", []int64{8, 16}, []int64{2, 4, 4}, "nr1"},
		{"adi", []int64{8, 16}, []int64{2, 4, 4}, "nr2"},
		{"adi", []int64{8, 16}, []int64{2, 4, 4}, "nr3"},
	}
	for _, c := range cases {
		prog, opts, err := fromBuiltin(c.app, c.space, c.factors, c.family)
		if err != nil {
			t.Fatalf("%s/%s: %v", c.app, c.family, err)
		}
		if prog.Dist.NumProcs() < 1 {
			t.Errorf("%s/%s: no processors", c.app, c.family)
		}
		src, err := generate(prog, opts)
		if err != nil {
			t.Fatalf("%s/%s codegen: %v", c.app, c.family, err)
		}
		if !strings.Contains(src, "MPI_Init") {
			t.Errorf("%s/%s: incomplete C", c.app, c.family)
		}
		// The program prints the app's own kernel and boundary values.
		if opts.KernelStmt == "" || opts.InitialStmt == "" ||
			!strings.Contains(src, opts.KernelStmt) || !strings.Contains(src, opts.InitialStmt) {
			t.Errorf("%s/%s: the kernel or the boundary values are missing from the C", c.app, c.family)
		}
	}
}

func TestFromBuiltinDefaultsAndErrors(t *testing.T) {
	if _, _, err := fromBuiltin("nosuch", nil, nil, "rect"); err == nil {
		t.Error("unknown app not rejected")
	}
	if _, _, err := fromBuiltin("sor", []int64{1}, []int64{1, 2, 3}, "rect"); err == nil {
		t.Error("bad space arity not rejected")
	}
	if _, _, err := fromBuiltin("sor", []int64{12, 24}, []int64{6, 10, 8}, "bogus"); err == nil {
		t.Error("unknown family not rejected")
	}
	if _, _, err := fromBuiltin("adi", []int64{8, 16}, []int64{2, 4, 4}, "nr"); err == nil {
		t.Error("adi family 'nr' should be rejected (nr1/nr2/nr3)")
	}
	// Defaults resolve to the paper's configurations.
	if _, _, err := fromBuiltin("jacobi", nil, nil, "rect"); err != nil {
		t.Errorf("jacobi defaults failed: %v", err)
	}
}

func TestFromSpec(t *testing.T) {
	spec := `{
		"name": "demo",
		"vars": ["i", "j"],
		"lo": [0, 0],
		"hi": [15, 15],
		"deps": [[1, 0], [0, 1]],
		"tiling": {"rect": [4, 4]},
		"mapdim": 0,
		"kernel": "out[0] = R0[0] + R1[0] + 1.0;"
	}`
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	prog, opts, err := fromSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	if prog.TS.T.TileSize != 16 {
		t.Errorf("TileSize = %d", prog.TS.T.TileSize)
	}
	src, err := generate(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(src, "demo") {
		t.Error("spec name not propagated")
	}
}

func TestFromSpecWithConstraintsAndSkew(t *testing.T) {
	spec := `{
		"vars": ["t", "i"],
		"lo": [1, 1],
		"hi": [6, 6],
		"constraints": [{"coef": [1, -1], "rhs": 3}],
		"deps": [[1, -1], [1, 0]],
		"skew": [[1, 0], [1, 1]],
		"tiling": {"edges": [[2, 0], [-2, 3]]}
	}`
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	prog, opts, err := fromSpec(path)
	if err != nil {
		t.Fatalf("constrained spec failed: %v", err)
	}
	// A kernel-less spec is fine for analysis, but emission must hard-fail
	// rather than generate a silently-wrong placeholder kernel.
	if opts.KernelStmt != "" {
		t.Fatalf("kernel-less spec produced KernelStmt %q, want empty", opts.KernelStmt)
	}
	if src, err := generate(prog, opts); err == nil || strings.Contains(src, "TODO") {
		t.Fatalf("emission without a kernel must error, got err=%v", err)
	}
}

func TestFromSpecErrors(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := map[string]string{
		"bad json":  `{`,
		"no vars":   `{"deps": [], "tiling": {"rect": [2]}}`,
		"no tiling": `{"vars": ["i"], "lo": [0], "hi": [5], "deps": [[1]], "tiling": {}}`,
		"bad rows":  `{"vars": ["i"], "lo": [0], "hi": [5], "deps": [[1]], "tiling": {"rows": [["x"]]}}`,
	}
	for name, body := range cases {
		if _, _, err := fromSpec(write(strings.ReplaceAll(name, " ", "_")+".json", body)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	if _, _, err := fromSpec(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file not reported")
	}
}

func TestFromSource(t *testing.T) {
	src := `
for i = 0 .. 11
for j = 0 .. 11
A[i,j] = A[i-1,j] + A[i,j-1] + 1
tile 1/3 0 / 0 1/3
map 1
`
	path := filepath.Join(t.TempDir(), "loop.nest")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	prog, opts, err := fromSource(path)
	if err != nil {
		t.Fatal(err)
	}
	if prog.TS.T.TileSize != 9 {
		t.Errorf("TileSize = %d", prog.TS.T.TileSize)
	}
	cSrc, err := generate(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(cSrc, "R0[0]") {
		t.Error("kernel reads missing from generated C")
	}
	// Missing tile directive is an error.
	noTile := filepath.Join(t.TempDir(), "nt.nest")
	if err := os.WriteFile(noTile, []byte("for i = 0 .. 4\nA[i] = A[i-1]\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := fromSource(noTile); err == nil {
		t.Error("missing tile directive not rejected")
	}
}

// TestOverflowingSourceFailsCleanly runs tilec on a spec whose bound leaves
// int64 in the compiler's exact arithmetic: the process must exit 1 with a
// diagnostic naming the overflow, not crash with a panic and goroutine dump.
func TestOverflowingSourceFailsCleanly(t *testing.T) {
	if src := os.Getenv("TILEC_TEST_SRC"); src != "" {
		os.Args = []string{"tilec", "-src", src, "-emit=false"}
		main()
		return
	}
	path := filepath.Join(t.TempDir(), "huge.nest")
	src := "let M = 4611686018427387904\nfor i = 1 .. M\nfor j = 1 .. 4\nA[i,j] = A[i-1,j] + A[i,j-1]\ntile 1/2 0 / 0 1/2\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := osexec.Command(os.Args[0], "-test.run=^TestOverflowingSourceFailsCleanly$")
	cmd.Env = append(os.Environ(), "TILEC_TEST_SRC="+path)
	out, err := cmd.CombinedOutput()
	var exit *osexec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("tilec exited with %v, want status 1\n%s", err, out)
	}
	if !strings.Contains(string(out), "overflow") || strings.Contains(string(out), "goroutine ") {
		t.Fatalf("tilec output does not name the overflow, or dumps goroutines:\n%s", out)
	}
}
