package frontend

import (
	"strings"
	"testing"

	"tilespace/internal/exec"
	"tilespace/internal/ilin"
	"tilespace/internal/tiling"
)

var sorSource = seed("sor")

func TestParseSOR(t *testing.T) {
	prog, err := Parse(sorSource)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Arrays) != 1 || prog.Arrays[0] != "A" || prog.Width != 1 || prog.Nest.N != 3 || prog.Nest.Q() != 5 {
		t.Fatalf("arrays=%v n=%d q=%d", prog.Arrays, prog.Nest.N, prog.Nest.Q())
	}
	// Skewed size must equal the original M×N×N.
	size, err := prog.Nest.Size()
	if err != nil {
		t.Fatal(err)
	}
	if size != 6*10*10 {
		t.Errorf("size = %d, want 600", size)
	}
	// Skewed dependencies: T·D with the paper's skew.
	want := map[string]bool{}
	for _, d := range [][]int64{{0, 1, 0}, {0, 0, 1}, {1, 0, 2}, {1, 1, 1}, {1, 1, 2}} {
		want[ilin.NewVec(d...).String()] = true
	}
	for l := 0; l < prog.Nest.Q(); l++ {
		if !want[prog.Nest.Dep(l).String()] {
			t.Errorf("unexpected skewed dep %v", prog.Nest.Dep(l))
		}
	}
	if prog.MapDim != 2 {
		t.Errorf("MapDim = %d, want 2", prog.MapDim)
	}
	if prog.Tiling == nil || prog.Tiling.Rows != 3 {
		t.Fatal("missing tile directive")
	}
	if !strings.Contains(prog.KernelC, "R0[0]") || !strings.HasPrefix(prog.KernelC, "out[0] = ") {
		t.Errorf("KernelC = %q", prog.KernelC)
	}
	if prog.Params["M"] != 6 || prog.Params["N"] != 10 {
		t.Errorf("params = %v", prog.Params)
	}
}

// TestParsedProgramExecutes: the parsed SOR runs through the whole
// pipeline — analyze with its own tile directive, run parallel vs
// sequential — using the kernel compiled from the source text.
func TestParsedProgramExecutes(t *testing.T) {
	prog, err := Parse(sorSource)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := tiling.Analyze(prog.Nest, prog.Tiling)
	if err != nil {
		t.Fatal(err)
	}
	p, err := exec.NewProgram(ts, prog.MapDim, 1, prog.Kernel, nil)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := p.RunSequential()
	if err != nil {
		t.Fatal(err)
	}
	par, _, err := p.RunParallelOpts(exec.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if diff, at := seq.MaxAbsDiff(par, p.ScanSpace); diff != 0 {
		t.Fatalf("parsed program: parallel differs by %g at %v", diff, at)
	}
}

func TestParseTriangularBounds(t *testing.T) {
	src := `
let N = 8
for i = 0 .. N
for j = i .. N
A[i,j] = A[i-1,j] + A[i,j-1] + 1
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	size, _ := prog.Nest.Size()
	if size != 9*10/2 {
		t.Errorf("triangle size = %d, want 45", size)
	}
	if prog.Nest.Q() != 2 {
		t.Errorf("q = %d", prog.Nest.Q())
	}
}

func TestParseAffineBoundExpressions(t *testing.T) {
	src := `
let T = 5
for t = 1 .. T
for i = t+1 .. t+6
for j = 2*t+1 .. 2*t+4
A[t,i,j] = A[t-1,i,j] + 0.5
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	size, _ := prog.Nest.Size()
	if size != 5*6*4 {
		t.Errorf("size = %d, want 120", size)
	}
}

func TestDependenceDeduplication(t *testing.T) {
	src := `
for i = 1 .. 8
for j = 1 .. 8
A[i,j] = A[i-1,j] + 2*A[i-1,j] - A[i,j-1]
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Nest.Q() != 2 {
		t.Errorf("q = %d, want 2 (duplicate reads deduplicated)", prog.Nest.Q())
	}
}

func TestKernelEvaluation(t *testing.T) {
	src := `
for i = 1 .. 4
A[i] = (A[i-1] + 3) * 2 - 1/2
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, 1)
	prog.Kernel.Row(1, ilin.NewVec(1), ilin.NewVec(1), [][]float64{{5}}, out)
	if out[0] != (5+3)*2-0.5 {
		t.Errorf("kernel = %v", out[0])
	}
	if !strings.Contains(prog.KernelC, "3.0") {
		t.Errorf("integer literals should render as C doubles: %q", prog.KernelC)
	}
}

func TestUnaryMinus(t *testing.T) {
	src := `
for i = 1 .. 4
A[i] = -A[i-1] + -2.5
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, 1)
	prog.Kernel.Row(1, ilin.NewVec(1), ilin.NewVec(1), [][]float64{{4}}, out)
	if out[0] != -6.5 {
		t.Errorf("kernel = %v", out[0])
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"no loops":             `A[i] = 1`,
		"no statement":         "for i = 1 .. 4",
		"array assigned twice": "for i = 1 .. 4\nA[i] = 1\nA[i] = 2",
		"loop after stmt":      "for i = 1 .. 4\nA[i] = 1\nfor j = 1 .. 4",
		"dup var":              "for i = 1 .. 4\nfor i = 1 .. 4\nA[i,i] = 1",
		"bad write ref":        "for i = 1 .. 4\nfor j = 1 .. 4\nA[j,i] = 1",
		"read never assigned":  "for i = 1 .. 4\nA[i] = B[i-1]",
		"non-uniform dep":      "for i = 1 .. 8\nA[i] = A[2*i]",
		"fractional offset":    "for i = 1 .. 8\nA[i] = A[i-1/2]",
		"inner-var bound":      "for i = j .. 4\nfor j = 1 .. 4\nA[i,j] = 1",
		"unknown bound name":   "for i = 1 .. Q\nA[i] = 1",
		"nonaffine bound":      "for i = 1 .. 4\nfor j = i*i .. 9\nA[i,j] = 1",
		"bad let":              "let = 4",
		"bad map":              "for i = 1 .. 4\nA[i] = 1\nmap x",
		"map zero":             "for i = 1 .. 4\nA[i] = 1\nmap 0",
		"bad skew":             "for i = 1 .. 4\nA[i] = 1\nskew x",
		"ragged skew":          "for i = 1 .. 4\nfor j = 1 .. 4\nA[i,j] = 1\nskew 1 0 / 1",
		"bad tile rational":    "for i = 1 .. 4\nA[i] = 1\ntile q",
		"empty tile":           "for i = 1 .. 4\nA[i] = 1\ntile",
		"trailing junk":        "for i = 1 .. 4 extra\nA[i] = 1",
		"negative dep":         "for i = 1 .. 8\nA[i] = A[i+1]",
		"bad range":            "for i = 1 4\nA[i] = 1",
		"unbalanced paren":     "for i = 1 .. 4\nA[i] = (A[i-1] + 1",
		"bad char":             "for i = 1 .. 4\nA[i] = A[i-1] ^ 2",
		"wrong index count":    "for i = 1 .. 4\nfor j = 1 .. 4\nA[i,j] = A[i-1]",
		"array ref in bounds":  "for i = A[0] .. 4\nA[i] = 1",
		"bare name in stmt":    "let N = 4\nfor i = 1 .. N\nA[i] = A[i-1] + N",
	}
	for name, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("%s: expected a parse error", name)
		}
	}
}

func TestCommentsAndBlankLines(t *testing.T) {
	src := "\n# header\n\nfor i = 1 .. 4   # inline comment\n\nA[i] = A[i-1] + 1\n#trailer\n"
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Nest.N != 1 {
		t.Errorf("n = %d", prog.Nest.N)
	}
}

func TestSplitRows(t *testing.T) {
	rows := splitRows("1/3 0 0 / 0 1/7 0 ; -1/4 0 1/4")
	if len(rows) != 3 {
		t.Fatalf("rows = %v", rows)
	}
	if rows[2] != "-1/4 0 1/4" {
		t.Errorf("row 3 = %q", rows[2])
	}
}

// adiSource is the paper's Table 3 two-array ADI statement, a constant
// coefficient standing in for the A[i,j] input array.
var adiSource = seed("adi")

// TestMultiArrayADI: the paper's "multiple statements on multiple arrays"
// form parses, infers width 2, and executes correctly end to end.
func TestMultiArrayADI(t *testing.T) {
	prog, err := Parse(adiSource)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Width != 2 || len(prog.Arrays) != 2 || prog.Arrays[0] != "X" || prog.Arrays[1] != "B" {
		t.Fatalf("arrays = %v, width = %d", prog.Arrays, prog.Width)
	}
	// Dependence set: (1,0,0), (1,0,1), (1,1,0) shared across both arrays.
	if prog.Nest.Q() != 3 {
		t.Fatalf("q = %d, want 3 (deps deduplicated across arrays)", prog.Nest.Q())
	}
	if !strings.Contains(prog.KernelC, "out[0] = ") || !strings.Contains(prog.KernelC, "out[1] = ") {
		t.Errorf("KernelC = %q", prog.KernelC)
	}
	ts, err := tiling.Analyze(prog.Nest, prog.Tiling)
	if err != nil {
		t.Fatal(err)
	}
	initial := func(j ilin.Vec, out []float64) { out[0], out[1] = 1, 2 }
	p, err := exec.NewProgram(ts, prog.MapDim, prog.Width, prog.Kernel, initial)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := p.RunSequential()
	if err != nil {
		t.Fatal(err)
	}
	par, _, err := p.RunParallelOpts(exec.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if diff, at := seq.MaxAbsDiff(par, p.ScanSpace); diff != 0 {
		t.Fatalf("multi-array parallel differs by %g at %v", diff, at)
	}
}

// TestMultiArrayCrossReads: a statement may read the other array at
// earlier iterations; a same-iteration read (d = 0) is rejected as a
// non-lex-positive dependence.
func TestMultiArrayCrossReads(t *testing.T) {
	if _, err := Parse("for i = 1 .. 4\nX[i] = B[i]\nB[i] = X[i-1]"); err == nil {
		t.Error("same-iteration cross read (d = 0) should be rejected")
	}
	prog, err := Parse("for i = 1 .. 6\nX[i] = B[i-1] + 1\nB[i] = X[i-1] * 2")
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, 2)
	prog.Kernel.Row(1, ilin.NewVec(1), ilin.NewVec(1), [][]float64{{10, 20}}, out)
	if out[0] != 21 || out[1] != 20 {
		t.Errorf("kernel = %v", out)
	}
}
