package tilespace

import (
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"tilespace/internal/ilin"
)

func quickNest(t *testing.T) *LoopNest {
	t.Helper()
	n, err := NewLoopNest([]string{"i", "j"}, []int64{0, 0}, []int64{23, 19},
		[][]int64{{1, 0}, {0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// sumKernel is out[0] = 1 + Σ reads over ln's dependences, added left to
// right.
func sumKernel(ln *LoopNest) Kernel {
	e := Const(1)
	for l := 0; l < ln.nest.Q(); l++ {
		e = Add(e, Read(l, 0))
	}
	return Statement(e)
}

func TestFacadeEndToEnd(t *testing.T) {
	nest := quickNest(t)
	h, err := RectangularTiling(4, 5)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(nest, h, CompileOptions{MapDim: -1, Kernel: sumKernel(nest)})
	if err != nil {
		t.Fatal(err)
	}
	if prog.TileSize() != 20 {
		t.Errorf("TileSize = %d", prog.TileSize())
	}
	if prog.Processors() <= 1 || prog.Tiles() != 24 {
		t.Errorf("procs = %d, tiles = %d", prog.Processors(), prog.Tiles())
	}
	seq, err := prog.RunSequential()
	if err != nil {
		t.Fatal(err)
	}
	par, err := prog.RunParallel()
	if err != nil {
		t.Fatal(err)
	}
	if d, at := seq.MaxAbsDiff(par); d != 0 {
		t.Fatalf("diff %g at %v", d, at)
	}
	if par.Stats.Messages == 0 {
		t.Error("expected parallel traffic")
	}
	// The top-right corner of a sum stencil counts lattice paths; just pin
	// the origin and one neighbour.
	if got := par.At([]int64{0, 0})[0]; got != 1 {
		t.Errorf("At(0,0) = %v", got)
	}
	if got := par.At([]int64{1, 0})[0]; got != 2 {
		t.Errorf("At(1,0) = %v", got)
	}
}

func TestFacadeSimulateAndReport(t *testing.T) {
	nest := quickNest(t)
	h, _ := RectangularTiling(4, 5)
	prog, err := Compile(nest, h, CompileOptions{Kernel: sumKernel(nest)})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := prog.Simulate(FastEthernetPIII())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Speedup <= 0 || rep.Points != 24*20 {
		t.Errorf("sim report %+v", rep)
	}
	if !strings.Contains(prog.Report(), "tiling analysis") {
		t.Error("report missing analysis")
	}
}

func TestFacadeGenerateC(t *testing.T) {
	nest := quickNest(t)
	h, _ := RectangularTiling(4, 5)
	prog, err := Compile(nest, h, CompileOptions{Kernel: sumKernel(nest)})
	if err != nil {
		t.Fatal(err)
	}
	src, err := prog.GenerateC(CodegenOptions{Name: "quick", KernelStmt: "out[0] = 1 + R0[0] + R1[0];"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(src, "MPI_Init") || !strings.Contains(src, "quick") {
		t.Error("generated C incomplete")
	}
	if _, err := prog.GenerateC(CodegenOptions{}); err != nil {
		t.Errorf("the program's own kernel did not print: %v", err)
	}
	bare, err := Compile(nest, h, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bare.GenerateC(CodegenOptions{}); err == nil {
		t.Error("a program compiled without a kernel printed C with no KernelStmt")
	}
}

// TestGenerateCPrintsParsedKernel: a ParseSource program emits C with no
// KernelStmt given, its kernel being the parsed statement printed.
func TestGenerateCPrintsParsedKernel(t *testing.T) {
	text, err := os.ReadFile("examples/codegen/sor.nest")
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseSource(string(text))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(parsed.Nest, parsed.Tiling, CompileOptions{MapDim: parsed.MapDim, Width: parsed.Width, Kernel: parsed.Kernel})
	if err != nil {
		t.Fatal(err)
	}
	src, err := prog.GenerateC(CodegenOptions{Name: "sor_nr"})
	if err != nil {
		t.Fatal(err)
	}
	kernelC, err := parsed.Kernel.C()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(src, kernelC) {
		t.Errorf("the C lacks the parsed kernel %q", kernelC)
	}
}

// TestQuickstartMatchesPlainLoop: quickstart's recurrence
// A[i,j] = 1 + A[i-1,j] + A[i,j-1] over 400×400, zero outside, run by the
// facade in parallel, equals a plain Go double loop bit for bit: an oracle
// that shares no code with the executor.
func TestQuickstartMatchesPlainLoop(t *testing.T) {
	const n = 400
	nest, err := NewLoopNest([]string{"i", "j"}, []int64{0, 0}, []int64{n - 1, n - 1}, [][]int64{{1, 0}, {0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	h, err := RectangularTiling(50, 50)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(nest, h, CompileOptions{MapDim: -1, Kernel: Statement(Add(Add(Const(1), Read(0, 0)), Read(1, 0)))})
	if err != nil {
		t.Fatal(err)
	}
	par, err := prog.RunParallel()
	if err != nil {
		t.Fatal(err)
	}
	var a [n][n]float64
	for i := range n {
		for j := range n {
			up, left := 0.0, 0.0
			if i > 0 {
				up = a[i-1][j]
			}
			if j > 0 {
				left = a[i][j-1]
			}
			a[i][j] = 1 + up + left
			if got := par.At([]int64{int64(i), int64(j)})[0]; math.Float64bits(got) != math.Float64bits(a[i][j]) {
				t.Fatalf("A[%d,%d]: parallel %v, plain loop %v", i, j, got, a[i][j])
			}
		}
	}
}

func TestLoopNestErrors(t *testing.T) {
	// Malformed integer inputs are errors, not panics.
	if _, err := NewLoopNest([]string{"i", "j"}, []int64{0, 0}, []int64{9, 9}, [][]int64{{1, 0}, {0, 1, 4}}); err == nil {
		t.Error("ragged deps not rejected")
	}
	if _, err := NewLoopNest([]string{"i"}, []int64{0}, []int64{5}, [][]int64{{-1}}); err == nil {
		t.Error("negative dep not rejected")
	}
	nest := quickNest(t)
	if _, err := nest.Skew([][]int64{{1, 0}, {1}}); err == nil {
		t.Error("ragged skew not rejected")
	}
}

func TestSkewAndConeRays(t *testing.T) {
	nest, err := NewLoopNest([]string{"t", "i"}, []int64{1, 1}, []int64{8, 8},
		[][]int64{{1, -1}, {1, 0}, {1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nest.ConeRays(); err != nil {
		t.Fatalf("ConeRays: %v", err)
	}
	sk, err := nest.Skew([][]int64{{1, 0}, {1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	h, _ := RectangularTiling(4, 4)
	if _, err := Compile(sk, h, CompileOptions{Kernel: sumKernel(sk)}); err != nil {
		t.Fatalf("skewed nest failed to compile: %v", err)
	}
}

func TestTilingConstructors(t *testing.T) {
	if _, err := TilingFromRows([][]string{{"1/2", "0"}, {"0", "1/2"}}); err != nil {
		t.Error(err)
	}
	if _, err := TilingFromRows(nil); err == nil {
		t.Error("empty rows not rejected")
	}
	if _, err := TilingFromRows([][]string{{"1/2"}, {"0", "1/2"}}); err == nil {
		t.Error("ragged rows not rejected")
	}
	if _, err := TilingFromRows([][]string{{"x", "0"}, {"0", "1"}}); err == nil {
		t.Error("bad rational not rejected")
	}
	// A parallelogram tile: H = P⁻¹ for P = [[2, 0], [-2, 4]].
	tl, err := TilingFromRows([][]string{{"1/2", "0"}, {"1/4", "1/4"}})
	if err != nil {
		t.Fatal(err)
	}
	nest := quickNest(t)
	prog, err := Compile(nest, tl, CompileOptions{Kernel: sumKernel(nest)})
	if err != nil {
		t.Fatal(err)
	}
	if prog.TileSize() != 8 {
		t.Errorf("TileSize = %d", prog.TileSize())
	}
}

func TestCompileErrors(t *testing.T) {
	nest := quickNest(t)
	if _, err := Compile(nest, Tiling{}, CompileOptions{}); err == nil {
		t.Error("zero tiling not rejected")
	}
	h, _ := RectangularTiling(4)
	if _, err := Compile(nest, h, CompileOptions{}); err == nil {
		t.Error("dimension mismatch not rejected")
	}
	h2, _ := RectangularTiling(4, 4)
	if _, err := Compile(nest, h2, CompileOptions{MapDim: 7}); err == nil {
		t.Error("bad map dim not rejected")
	}
}

func TestParseSourceEndToEnd(t *testing.T) {
	src := `
let N = 12
for i = 0 .. N
for j = 0 .. N
A[i,j] = A[i-1,j] + A[i,j-1] + 1
tile 1/4 0 / 0 1/4
map 1
`
	parsed, err := ParseSource(src)
	if err != nil {
		t.Fatal(err)
	}
	if !parsed.HasTiling || parsed.MapDim != 0 {
		t.Fatalf("directives: tiling=%v map=%d", parsed.HasTiling, parsed.MapDim)
	}
	prog, err := Compile(parsed.Nest, parsed.Tiling, CompileOptions{
		MapDim: parsed.MapDim, Kernel: parsed.Kernel,
	})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := prog.RunSequential()
	if err != nil {
		t.Fatal(err)
	}
	par, err := prog.RunParallel()
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := seq.MaxAbsDiff(par); d != 0 {
		t.Fatal("parsed source verification failed")
	}
	cSrc, err := prog.GenerateC(CodegenOptions{Name: "parsed"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(cSrc, "R0[0]") {
		t.Error("generated C missing dependence reads")
	}
	if _, err := ParseSource("garbage ["); err == nil {
		t.Error("bad source not rejected")
	}

	// A non-box space: the triangle 0 ≤ i ≤ j ≤ 8, tiled 3×3, runs in
	// parallel bit for bit as in sequence.
	text, err := os.ReadFile("internal/frontend/testdata/seeds/triangle.nest")
	if err != nil {
		t.Fatal(err)
	}
	tri, err := ParseSource(string(text))
	if err != nil {
		t.Fatal(err)
	}
	if size, err := tri.Nest.Size(); err != nil || size != 45 {
		t.Fatalf("triangle size = %d, %v; want 45", size, err)
	}
	h, _ := RectangularTiling(3, 3)
	prog, err = Compile(tri.Nest, h, CompileOptions{MapDim: -1, Kernel: tri.Kernel})
	if err != nil {
		t.Fatal(err)
	}
	if seq, err = prog.RunSequential(); err != nil {
		t.Fatal(err)
	}
	if par, err = prog.RunParallel(); err != nil {
		t.Fatal(err)
	}
	prog.art.Prog.ScanSpace(func(j ilin.Vec) bool {
		s, p := seq.At(j), par.At(j)
		for k := range s {
			if math.Float64bits(s[k]) != math.Float64bits(p[k]) {
				t.Fatalf("triangle at %v: parallel %v, sequential %v", j, p, s)
			}
		}
		return true
	})
}

func TestFacadeOptimize(t *testing.T) {
	nest, err := NewLoopNest([]string{"t", "i", "j"}, []int64{1, 1, 1}, []int64{12, 16, 16},
		[][]int64{{1, 0, 0}, {1, 1, 0}, {1, 0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Optimize(nest, SearchOptions{
		Params: FastEthernetPIII(), MapDim: -1, Factors: []int64{2, 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil {
		t.Fatal("no winner")
	}
	prog, err := Compile(nest, CandidateTiling(res.Best), CompileOptions{MapDim: res.Best.MapDim, Kernel: sumKernel(nest)})
	if err != nil {
		t.Fatalf("winner does not compile: %v", err)
	}
	seq, _ := prog.RunSequential()
	par, err := prog.RunParallel()
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := seq.MaxAbsDiff(par); d != 0 {
		t.Fatal("winner verification failed")
	}
}

// ExampleCompile is README's quick start: tile a 2-D recurrence, run it in
// parallel and in sequence, simulate it on the paper's testbed and emit its
// C+MPI program.
func ExampleCompile() {
	nest, _ := NewLoopNest([]string{"i", "j"},
		[]int64{0, 0}, []int64{399, 399},
		[][]int64{{1, 0}, {0, 1}}) // dependence vectors
	h, _ := RectangularTiling(50, 50)                 // or TilingFromRows
	one, up, left := Const(1), Read(0, 0), Read(1, 0) // reads through d_1, d_2
	prog, _ := Compile(nest, h, CompileOptions{
		Kernel: Statement(Add(Add(one, up), left)), // out[0] = 1 + up + left
	})
	par, _ := prog.RunParallel()                           // real message-passing execution
	seq, _ := prog.RunSequential()                         // reference
	diff, _ := seq.MaxAbsDiff(par)                         // == 0
	rep, _ := prog.Simulate(FastEthernetPIII())            // paper's testbed model
	src, _ := prog.GenerateC(CodegenOptions{Name: "demo"}) // the paper's deliverable
	fmt.Println(diff, rep.Procs, strings.Contains(src, "out[0] = ((1.0 + R0[0]) + R1[0]);"))
	// Output: 0 8 true
}
