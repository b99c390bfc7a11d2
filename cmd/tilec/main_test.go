package main

import (
	"errors"
	"os"
	osexec "os/exec"
	"path/filepath"
	"strings"
	"testing"
)

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
		spec, err := fromBuiltin(c.app, c.space, c.factors, c.family)
		art, err := build(spec, err)
		if err != nil {
			t.Fatalf("%s/%s: %v", c.app, c.family, err)
		}
		if art.Procs < 1 {
			t.Errorf("%s/%s: no processors", c.app, c.family)
		}
		src, err := art.C()
		if err != nil {
			t.Fatalf("%s/%s codegen: %v", c.app, c.family, err)
		}
		if !strings.Contains(src, "MPI_Init") || !strings.Contains(src, c.app+"_"+c.family) {
			t.Errorf("%s/%s: incomplete C", c.app, c.family)
		}
		// The program prints the app's own kernel and boundary values.
		kernelC, err := spec.Kernel.C()
		if err != nil || kernelC == "" || spec.InitialC == "" ||
			!strings.Contains(src, kernelC) || !strings.Contains(src, spec.InitialC) {
			t.Errorf("%s/%s: the kernel or the boundary values are missing from the C", c.app, c.family)
		}
	}
}

func TestFromBuiltinDefaultsAndErrors(t *testing.T) {
	if _, err := build(fromBuiltin("nosuch", nil, nil, "rect")); err == nil {
		t.Error("unknown app not rejected")
	}
	if _, err := build(fromBuiltin("sor", []int64{1}, []int64{1, 2, 3}, "rect")); err == nil {
		t.Error("bad space arity not rejected")
	}
	if _, err := build(fromBuiltin("sor", []int64{12, 24}, []int64{6, 10, 8}, "bogus")); err == nil {
		t.Error("unknown family not rejected")
	}
	if _, err := build(fromBuiltin("adi", []int64{8, 16}, []int64{2, 4, 4}, "nr")); err == nil {
		t.Error("adi family 'nr' should be rejected (nr1/nr2/nr3)")
	}
	for _, app := range []string{"sor", "jacobi", "adi"} {
		if _, err := build(fromBuiltin(app, nil, []int64{2, 0, 3}, "rect")); err == nil || !strings.Contains(err.Error(), "tile factor 0") {
			t.Errorf("%s: zero tile factor gives %v, want an error naming it", app, err)
		}
	}
	// Defaults resolve to the paper's configurations.
	if _, err := build(fromBuiltin("jacobi", nil, nil, "rect")); err != nil {
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
	art, err := build(fromSpec(path))
	if err != nil {
		t.Fatal(err)
	}
	if art.TileSize != 16 {
		t.Errorf("TileSize = %d", art.TileSize)
	}
	src, err := art.C()
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
	art, err := build(fromSpec(path))
	if err != nil {
		t.Fatalf("constrained spec failed: %v", err)
	}
	// A kernel-less spec is fine for analysis, but emission must hard-fail
	// rather than generate a silently-wrong placeholder kernel.
	if src, err := art.C(); err == nil || strings.Contains(src, "TODO") {
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
		// Malformed integer inputs are errors, not panics.
		"ragged deps":    `{"vars": ["i", "j"], "lo": [0, 0], "hi": [9, 9], "deps": [[1, 0], [0, 1, 4]], "tiling": {"rect": [2, 2]}}`,
		"ragged skew":    `{"vars": ["i", "j"], "lo": [0, 0], "hi": [9, 9], "deps": [[1, 0], [0, 1]], "skew": [[1, 0], [1]], "tiling": {"rect": [2, 2]}}`,
		"ragged edges":   `{"vars": ["i", "j"], "lo": [0, 0], "hi": [9, 9], "deps": [[1, 0], [0, 1]], "tiling": {"edges": [[2, 0], [1]]}}`,
		"long bounds":    `{"vars": ["i", "j"], "lo": [0, 0, 0], "hi": [9, 9, 9], "deps": [[1, 0], [0, 1]], "tiling": {"rect": [2, 2]}}`,
		"lo beyond hi":   `{"vars": ["i", "j"], "lo": [0, 0, 0], "hi": [9, 9], "deps": [[1, 0], [0, 1]], "tiling": {"rect": [2, 2]}}`,
		"negative width": `{"vars": ["i", "j"], "lo": [0, 0], "hi": [9, 9], "deps": [[1, 0], [0, 1]], "tiling": {"rect": [2, 2]}, "width": -1}`,
		// Misspelt fields fail loud instead of being silently defaulted, at
		// the top level and inside the tiling; so does trailing data.
		"misspelt width":  `{"vars": ["i", "j"], "lo": [0, 0], "hi": [9, 9], "deps": [[1, 0], [0, 1]], "tiling": {"rect": [2, 2]}, "widht": 3}`,
		"misspelt skew":   `{"vars": ["i", "j"], "lo": [0, 0], "hi": [9, 9], "deps": [[1, 0], [0, 1]], "skwe": [[1, 0], [1, 1]], "tiling": {"rect": [2, 2]}}`,
		"misspelt tiling": `{"vars": ["i", "j"], "lo": [0, 0], "hi": [9, 9], "deps": [[1, 0], [0, 1]], "tiling": {"rects": [2, 2], "rect": [2, 2]}}`,
		"trailing bytes":  `{"vars": ["i", "j"], "lo": [0, 0], "hi": [9, 9], "deps": [[1, 0], [0, 1]], "tiling": {"rect": [2, 2]}}xyz`,
		"second object":   `{"vars": ["i", "j"], "lo": [0, 0], "hi": [9, 9], "deps": [[1, 0], [0, 1]], "tiling": {"rect": [2, 2]}} {"vars": ["i"]}`,
	}
	for name, body := range cases {
		if _, err := build(fromSpec(write(strings.ReplaceAll(name, " ", "_")+".json", body))); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	if _, err := build(fromSpec(filepath.Join(dir, "missing.json"))); err == nil {
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
	art, err := build(fromSource(path))
	if err != nil {
		t.Fatal(err)
	}
	if art.TileSize != 9 {
		t.Errorf("TileSize = %d", art.TileSize)
	}
	cSrc, err := art.C()
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
	if _, err := build(fromSource(noTile)); err == nil {
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

// TestOneInputFlag runs tilec with both -src and -app: naming more than one
// input is a usage error (exit 2), not a compile of the first.
func TestOneInputFlag(t *testing.T) {
	if os.Getenv("TILEC_TEST_TWO_INPUTS") != "" {
		os.Args = []string{"tilec", "-src", "../../internal/frontend/testdata/seeds/sor.nest", "-app", "jacobi", "-emit=false"}
		main()
		return
	}
	cmd := osexec.Command(os.Args[0], "-test.run=^TestOneInputFlag$")
	cmd.Env = append(os.Environ(), "TILEC_TEST_TWO_INPUTS=1")
	out, err := cmd.CombinedOutput()
	var exit *osexec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "Usage of tilec") {
		t.Fatalf("tilec -src … -app … exited with %v, want status 2 and the usage\n%s", err, out)
	}
}

// TestSpecMatchesSource: the committed JSON spec is the SOR seed with its
// kernel as C, so the two inputs compile to one program: under one name,
// the same analysis and the same C, byte for byte.
func TestSpecMatchesSource(t *testing.T) {
	spec, err := fromSpec("testdata/sor.json")
	spec.Name = ""
	fromJSON, err := build(spec, err)
	if err != nil {
		t.Fatal(err)
	}
	fromDSL, err := build(fromSource("../../internal/frontend/testdata/seeds/sor.nest"))
	if err != nil {
		t.Fatal(err)
	}
	if fromJSON.Report() != fromDSL.Report() {
		t.Error("the JSON spec and the DSL seed analyze differently")
	}
	cJSON, err := fromJSON.C()
	if err != nil {
		t.Fatal(err)
	}
	cDSL, err := fromDSL.C()
	if err != nil {
		t.Fatal(err)
	}
	if cJSON != cDSL {
		t.Error("the JSON spec and the DSL seed emit different C")
	}
}
