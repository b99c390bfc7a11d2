package exec_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"tilespace/internal/apps"
	"tilespace/internal/exec"
	"tilespace/internal/frontend"
	"tilespace/internal/ilin"
	"tilespace/internal/loopnest"
	"tilespace/internal/poly"
	"tilespace/internal/rat"
	"tilespace/internal/tiling"
)

// This file checks the row-wise sequential reference (RunSequential)
// against the per-point oracle it replaced (RunPointwise): every value of
// the Global, bit for bit, NaN cells outside the space included.

// seqCase is one program for the sequential references.
type seqCase struct {
	name string
	p    *exec.Program
}

// sweepInit is a boundary value that names its point, so that an outside
// read of the wrong source shows in the result.
func sweepInit(j ilin.Vec, out []float64) {
	for s := range out {
		out[s] = float64(j[0]*7-j[len(j)-1]*3+int64(s)) / 16
	}
}

// drawnSources are DSL sources of the two templates the compile_suite
// workload draws, 2-D heat and skewed 3-D SOR under both tile forms, with
// sizes, factors and coefficients drawn from seed.
func drawnSources(seed int64, count int) []string {
	rng := rand.New(rand.NewSource(seed))
	pick := func(lo, hi int) int { return lo + rng.Intn(hi-lo+1) }
	out := make([]string, count)
	for i := range out {
		var b strings.Builder
		if i%2 == 0 {
			fmt.Fprintf(&b, "let M = %d\nlet N = %d\nfor t = 1 .. M\nfor i = 1 .. N\n", pick(7, 9), pick(44, 52))
			fmt.Fprintf(&b, "A[t,i] = 0.%d*(A[t-1,i] + A[t,i-1]) + %d\n", pick(3, 6), pick(1, 9))
			fmt.Fprintf(&b, "tile 1/%d 0 / 0 1/%d\n", pick(2, 3), pick(4, 6))
			out[i] = b.String()
			continue
		}
		fmt.Fprintf(&b, "let M = %d\nlet N = %d\nfor t = 1 .. M\nfor i = 1 .. N\nfor j = 1 .. N\n", pick(5, 6), pick(13, 15))
		fmt.Fprintf(&b, "A[t,i,j] = 0.%d*(A[t,i-1,j] + A[t,i,j-1] + A[t-1,i+1,j] + A[t-1,i,j+1]) - 0.%d*A[t-1,i,j]\n",
			pick(2, 3), pick(1, 3))
		b.WriteString("skew 1 0 0 / 1 1 0 / 2 0 1\n")
		x, y := pick(2, 3), pick(4, 5)
		if i%4 == 1 {
			fmt.Fprintf(&b, "tile 1/%d 0 0 / 0 1/%d 0 / 0 0 1/4\n", x, y)
		} else {
			fmt.Fprintf(&b, "tile 1/%d 0 0 / 0 1/%d 0 / -1/4 0 1/4\n", x, y)
		}
		b.WriteString("map 3\n")
		out[i] = b.String()
	}
	return out
}

// depMat is the dependence matrix whose columns are deps.
func depMat(deps ...[]int64) *ilin.Mat {
	m := ilin.NewMat(len(deps[0]), len(deps))
	for l, d := range deps {
		m.SetCol(l, d)
	}
	return m
}

// weighted is the statement Σ_l w_l·R_l[0] + 1/8, a different weight per
// dependence, plus extra.
func weighted(q int, extra ...*exec.Expr) exec.Kernel {
	e := exec.Const(0.125)
	for l := 0; l < q; l++ {
		e = exec.Add(e, exec.Mul(exec.Const(float64(l+2)/float64(4*q+3)), exec.Read(l, 0)))
	}
	for _, x := range extra {
		e = exec.Add(e, x)
	}
	return exec.Statement(e)
}

// seqCases builds the differential matrix, the drawn DSL sources and the
// hand nests below.
func seqCases(t *testing.T) []seqCase {
	t.Helper()
	var out []seqCase
	for _, c := range diffCases(t) {
		out = append(out, seqCase{c.name, c.p})
	}
	for i, src := range drawnSources(7, 8) {
		f, err := frontend.Parse(src)
		if err != nil {
			t.Fatalf("drawn source %d: %v\n%s", i, err, src)
		}
		ts, err := tiling.Analyze(f.Nest, f.Tiling)
		if err != nil {
			t.Fatalf("drawn source %d: %v\n%s", i, err, src)
		}
		p, err := exec.NewProgram(ts, f.MapDim, f.Width, f.Kernel, sweepInit)
		if err != nil {
			t.Fatalf("drawn source %d: %v", i, err)
		}
		out = append(out, seqCase{fmt.Sprintf("dsl/%d", i), p})
	}
	add := func(name string, space *poly.System, deps *ilin.Mat, h *ilin.RatMat, k exec.Kernel) {
		nest, err := loopnest.New(nil, space, deps)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ts, err := tiling.Analyze(nest, h)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		p, err := exec.NewProgram(ts, 0, 1, k, sweepInit)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, seqCase{name, p})
	}
	box := func(hi ...int64) *poly.System {
		s := poly.NewSystem(len(hi))
		for k, x := range hi {
			s.AddRange(k, 0, x)
		}
		return s
	}
	rect := func(x, y int64) *ilin.RatMat {
		tr, err := tiling.Rectangular(x, y)
		if err != nil {
			t.Fatal(err)
		}
		return tr.H
	}
	coef := exec.Coef(func(j ilin.Vec) float64 { return float64(j[0]-2*j[1]) / 32 }, "((double)(j[0] - 2*j[1]) / 32)")
	// Innermost dependences at distance 2 and 5 under a statement that is
	// not one pass (its products run first): chunks of 2 and of 5, alone and
	// together with a Coef.
	add("hand/inner-2", box(9, 40), depMat([]int64{1, 0}, []int64{0, 2}), rect(3, 8), weighted(2))
	add("hand/inner-5", box(9, 40), depMat([]int64{1, 0}, []int64{0, 5}), rect(3, 8), weighted(2))
	add("hand/inner-5-2-coef", box(9, 40), depMat([]int64{0, 5}, []int64{1, 3}, []int64{0, 2}), rect(3, 8), weighted(3, coef))
	add("hand/point-kernel", box(9, 40), depMat([]int64{1, 0}, []int64{0, 5}), rect(3, 8),
		exec.PointKernel(func(j ilin.Vec, reads [][]float64, out []float64) {
			out[0] = reads[0][0]*0.5 + reads[1][0]*0.375 + float64(j[0]-j[1])/8
		}))
	// A wedge: the box 0 ≤ i ≤ 10, −12 ≤ j ≤ 12 cut by the halfplanes
	// j − i ≤ 3 and −j − i ≤ 3. Row i is one longer at each end than row
	// i − 1, so (1, 0) and (1, 1) read rows with outside prefixes and
	// suffixes, and (2, 5) reads rows wholly outside the space at i < 2.
	wedge := poly.NewSystem(2)
	wedge.AddRange(0, 0, 10)
	wedge.AddRange(1, -12, 12)
	wedge.Add(poly.NewConstraint(ilin.RatVec{rat.FromInt(-1), rat.One}, rat.FromInt(3)))
	wedge.Add(poly.NewConstraint(ilin.RatVec{rat.FromInt(-1), rat.FromInt(-1)}, rat.FromInt(3)))
	add("hand/wedge", wedge, depMat([]int64{1, 0}, []int64{1, 1}, []int64{2, 5}, []int64{0, 1}), rect(3, 6), weighted(4, coef))
	return out
}

// TestRunSequentialMatchesPointOracle: over the differential matrix, the
// eight drawn DSL sources and the hand nests — innermost dependences at
// distance 1 (SOR, the DSL), 2 and 5, ADI at width 2 with Coef, an opaque
// PointKernel, and a wedge whose rows read outside prefixes, suffixes and
// whole rows — the row sweep leaves every cell of the Global bit for bit
// where the per-point sweep does, and agrees with the tiled order too.
func TestRunSequentialMatchesPointOracle(t *testing.T) {
	for _, c := range seqCases(t) {
		t.Run(c.name, func(t *testing.T) {
			got, err := c.p.RunSequential()
			if err != nil {
				t.Fatal(err)
			}
			if at, ok := c.p.RunPointwise().FirstBitDiff(got); ok {
				t.Fatalf("row sweep differs from the per-point oracle at %v", at)
			}
			tiled, err := c.p.RunTiledSequential()
			if err != nil {
				t.Fatal(err)
			}
			if at, ok := tiled.FirstBitDiff(got); ok {
				t.Fatalf("row sweep differs from the tiled per-point order at %v", at)
			}
		})
	}
}

// jacobiProgram is the benchmark's jacobi_coarse program (apps.Jacobi(8,
// 192), rect 2×102×204) over an n×n grid instead.
func jacobiProgram(tb testing.TB, n int64) *exec.Program {
	tb.Helper()
	a, err := apps.Jacobi(8, n)
	if err != nil {
		tb.Fatal(err)
	}
	ts, err := tiling.Analyze(a.Nest, a.Rect.H(2, n/2+6, n+12))
	if err != nil {
		tb.Fatal(err)
	}
	p, err := exec.NewProgram(ts, a.MapDim, a.Width, a.Kernel, a.Initial)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// TestRunSequentialAllocsDoNotGrow: the row sweep allocates a fixed set of
// buffers — the Global and per-run scratch — however large the space. (The
// average over 20 runs rounds down the odd allocation the runtime itself
// makes when a large Global triggers a collection.)
func TestRunSequentialAllocsDoNotGrow(t *testing.T) {
	var allocs [2]float64
	for i, n := range []int64{24, 96} {
		p := jacobiProgram(t, n)
		allocs[i] = testing.AllocsPerRun(20, func() {
			if _, err := p.RunSequential(); err != nil {
				t.Fatal(err)
			}
		})
	}
	if allocs[0] != allocs[1] || allocs[1] > 30 {
		t.Fatalf("RunSequential allocates %v times at 24×24 and %v at 96×96, want the same few", allocs[0], allocs[1])
	}
}

// BenchmarkRunSequential times the sequential reference on the
// jacobi_coarse shape at a 48×48 grid.
func BenchmarkRunSequential(b *testing.B) {
	p := jacobiProgram(b, 48)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.RunSequential(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestShippedStatementsFuse: the statements of SOR, Jacobi and Heat3D and of
// the heat2d and sor3d DSL templates lower to one fused pass, ADI's does not;
// and every one of them, run by RunSequential and by RunParallelOpts, leaves
// the Global bit for bit where the per-point tree walk (RunPointwise) does.
func TestShippedStatementsFuse(t *testing.T) {
	for _, c := range seqCases(t) {
		if strings.HasPrefix(c.name, "hand/") {
			continue
		}
		t.Run(c.name, func(t *testing.T) {
			if want := !strings.HasPrefix(c.name, "adi/"); c.p.Kernel.Fused() != want {
				t.Errorf("kernel fused = %v, want %v", c.p.Kernel.Fused(), want)
			}
			ref := c.p.RunPointwise()
			seq, err := c.p.RunSequential()
			if err != nil {
				t.Fatal(err)
			}
			par, _, err := c.p.RunParallelOpts(exec.RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if at, ok := ref.FirstBitDiff(seq); ok {
				t.Errorf("RunSequential differs from the per-point tree walk at %v", at)
			}
			if at, ok := ref.FirstBitDiff(par); ok {
				t.Errorf("RunParallelOpts differs from the per-point tree walk at %v", at)
			}
		})
	}
}
