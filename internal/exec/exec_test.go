package exec

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"tilespace/internal/ilin"
	"tilespace/internal/loopnest"
	"tilespace/internal/rat"
	"tilespace/internal/tiling"
)

// sumKernel: out = 1 + Σ reads — integer-valued, any placement error
// changes the result. An opaque per-point body.
var sumKernel = PointKernel(func(j ilin.Vec, reads [][]float64, out []float64) {
	s := 1.0
	for _, r := range reads {
		s += r[0]
	}
	out[0] = s
})

// sumStatement is sumKernel over q dependences as a statement: the same
// additions in the same order, evaluated a row at a time.
func sumStatement(q int) Kernel {
	e := Const(1)
	for l := 0; l < q; l++ {
		e = Add(e, Read(l, 0))
	}
	return Statement(e)
}

func zeroInit(j ilin.Vec, out []float64) {
	for i := range out {
		out[i] = 0
	}
}

func buildProgram(t testing.TB, nest *loopnest.Nest, h *ilin.RatMat, m int, width int, k Kernel, init Initial) *Program {
	t.Helper()
	ts, err := tiling.Analyze(nest, h)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProgram(ts, m, width, k, init)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func comparePrograms(t *testing.T, p *Program) {
	t.Helper()
	seq, err := p.RunSequential()
	if err != nil {
		t.Fatal(err)
	}
	par, stats, err := p.RunParallelOpts(RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	diff, at := seq.MaxAbsDiff(par, p.ScanSpace)
	if diff != 0 {
		t.Fatalf("parallel differs from sequential by %g at %v (procs=%d, msgs=%d)", diff, at, p.Dist.NumProcs(), stats.Messages)
	}
	// The overlapped mode must agree bit-for-bit too, and must route every
	// data message through the Isend path.
	ov, ovStats, err := p.RunParallelOpts(RunOptions{Overlap: true})
	if err != nil {
		t.Fatal(err)
	}
	if diff, at := seq.MaxAbsDiff(ov, p.ScanSpace); diff != 0 {
		t.Fatalf("overlapped parallel differs from sequential by %g at %v", diff, at)
	}
	if ovStats.Messages != stats.Messages {
		t.Fatalf("overlapped run sent %d messages, blocking sent %d", ovStats.Messages, stats.Messages)
	}
	if ovStats.BlockingSends != 0 {
		t.Fatalf("overlapped run still used %d blocking sends", ovStats.BlockingSends)
	}
	if ovStats.OverlappedSends != stats.Messages {
		t.Fatalf("OverlappedSends = %d, want %d", ovStats.OverlappedSends, stats.Messages)
	}
}

func TestParallelRect2D(t *testing.T) {
	nest := mustBox(t, []string{"i", "j"}, []int64{0, 0}, []int64{19, 23},
		ilin.MatFromRows([]int64{1, 0}, []int64{0, 1}))
	tr, _ := tiling.Rectangular(4, 4)
	p := buildProgram(t, nest, tr.H, 0, 1, sumKernel, zeroInit)
	if p.Dist.NumProcs() != 6 {
		t.Fatalf("procs = %d, want 6", p.Dist.NumProcs())
	}
	comparePrograms(t, p)
}

func TestParallelRect2DRaggedBoundary(t *testing.T) {
	nest := mustBox(t, []string{"i", "j"}, []int64{1, 1}, []int64{17, 20},
		ilin.MatFromRows([]int64{1, 0}, []int64{0, 1}))
	tr, _ := tiling.Rectangular(4, 3)
	p := buildProgram(t, nest, tr.H, 1, 1, sumKernel, zeroInit)
	comparePrograms(t, p)
}

func TestParallelNonRect2D(t *testing.T) {
	h, err := ilin.ParseRatMat([][]string{{"1/2", "0"}, {"1/4", "1/4"}})
	if err != nil {
		t.Fatal(err)
	}
	nest := mustBox(t, []string{"i", "j"}, []int64{0, 0}, []int64{15, 15},
		ilin.MatFromRows([]int64{1, 0}, []int64{0, 1}))
	p := buildProgram(t, nest, h, 0, 1, sumKernel, zeroInit)
	comparePrograms(t, p)
}

func TestParallelNonZeroInitial(t *testing.T) {
	nest := mustBox(t, []string{"i", "j"}, []int64{0, 0}, []int64{10, 10},
		ilin.MatFromRows([]int64{1, 0}, []int64{0, 1}))
	tr, _ := tiling.Rectangular(3, 3)
	init := func(j ilin.Vec, out []float64) { out[0] = float64(j[0]*3 + j[1]) }
	p := buildProgram(t, nest, tr.H, 0, 1, sumKernel, init)
	comparePrograms(t, p)
}

// sorNest builds the skewed SOR nest of §4.1 on a small space by skewing
// the rectangular original with T = [[1,0,0],[1,1,0],[2,0,1]].
func sorNest(t testing.TB, m, n int64) *loopnest.Nest {
	t.Helper()
	orig := mustBox(t, []string{"t", "i", "j"}, []int64{1, 1, 1}, []int64{m, n, n},
		ilin.MatFromRows(
			[]int64{0, 0, 1, 1, 1},
			[]int64{1, 0, -1, 0, 0},
			[]int64{0, 1, 0, -1, 0},
		))
	skew := ilin.MatFromRows([]int64{1, 0, 0}, []int64{1, 1, 0}, []int64{2, 0, 1})
	sk, err := orig.Skew(skew)
	if err != nil {
		t.Fatal(err)
	}
	return sk
}

func TestParallelSkewedSOR(t *testing.T) {
	nest := sorNest(t, 4, 8)
	// Non-rectangular H_nr from §4.1 with x=2, y=5, z=4.
	h := ilin.NewRatMat(3, 3)
	h.Set(0, 0, rat.New(1, 2))
	h.Set(1, 1, rat.New(1, 5))
	h.Set(2, 0, rat.New(-1, 4))
	h.Set(2, 2, rat.New(1, 4))
	p := buildProgram(t, nest, h, 2, 1, sumKernel, zeroInit)
	comparePrograms(t, p)
}

func TestParallelSkewedSORRect(t *testing.T) {
	nest := sorNest(t, 4, 8)
	tr, _ := tiling.Rectangular(2, 5, 4)
	p := buildProgram(t, nest, tr.H, 2, 1, sumKernel, zeroInit)
	comparePrograms(t, p)
}

// TestParallelJacobiStride2 exercises the non-unimodular H' path (TTIS
// lattice with stride 2 and incremental offsets).
func TestParallelJacobiStride2(t *testing.T) {
	deps := ilin.MatFromRows(
		[]int64{1, 1, 1, 1, 1},
		[]int64{1, 2, 0, 1, 1},
		[]int64{1, 1, 1, 2, 0},
	)
	nest := mustBox(t, []string{"t", "i", "j"}, []int64{0, 0, 0}, []int64{7, 9, 9}, deps)
	h := ilin.NewRatMat(3, 3)
	h.Set(0, 0, rat.New(1, 2))
	h.Set(0, 1, rat.New(-1, 4))
	h.Set(1, 1, rat.New(1, 4))
	h.Set(2, 2, rat.New(1, 5))
	p := buildProgram(t, nest, h, 0, 1, sumKernel, zeroInit)
	comparePrograms(t, p)
}

// TestParallelWidth2 models ADI's two-array statement.
func TestParallelWidth2(t *testing.T) {
	deps := ilin.MatFromRows([]int64{1, 1, 1}, []int64{0, 1, 0}, []int64{0, 0, 1})
	nest := mustBox(t, []string{"t", "i", "j"}, []int64{1, 1, 1}, []int64{6, 8, 8}, deps)
	tr, _ := tiling.Rectangular(2, 3, 3)
	k := PointKernel(func(j ilin.Vec, reads [][]float64, out []float64) {
		out[0] = reads[0][0] + reads[1][1] + 1
		out[1] = reads[2][0] - reads[0][1] + 0.5
	})
	init := func(j ilin.Vec, out []float64) { out[0], out[1] = 1, 2 }
	p := buildProgram(t, nest, tr.H, 0, 2, k, init)
	comparePrograms(t, p)
	// The same body as a statement runs row-wise and must agree with it.
	stmt := Statement(
		Add(Add(Read(0, 0), Read(1, 1)), Const(1)),
		Add(Sub(Read(2, 0), Read(0, 1)), Const(0.5)))
	ps := buildProgram(t, nest, tr.H, 0, 2, stmt, init)
	comparePrograms(t, ps)
	gp, _, err := p.RunParallelOpts(RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gs, _, err := ps.RunParallelOpts(RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if diff, at := gp.MaxAbsDiff(gs, p.ScanSpace); diff != 0 {
		t.Fatalf("statement differs from the opaque body by %g at %v", diff, at)
	}
}

// TestSelfCheckingKernel directly validates communication placement: the
// kernel writes enc(j) and asserts every dependence read equals enc(j−d)
// (or the Initial marker when j−d is outside the space).
func TestSelfCheckingKernel(t *testing.T) {
	deps := ilin.MatFromRows(
		[]int64{1, 0, 1, 1, 0},
		[]int64{1, 1, 0, 1, 0},
		[]int64{2, 0, 2, 1, 1},
	)
	nest := mustBox(t, []string{"t", "i", "j"}, []int64{0, 0, 0}, []int64{7, 9, 11}, deps)
	h := ilin.NewRatMat(3, 3)
	h.Set(0, 0, rat.New(1, 3))
	h.Set(1, 1, rat.New(1, 4))
	h.Set(2, 0, rat.New(-1, 4))
	h.Set(2, 2, rat.New(1, 4))
	ts, err := tiling.Analyze(nest, h)
	if err != nil {
		t.Fatal(err)
	}
	enc := func(j ilin.Vec) float64 { return float64(j[0]*10000 + j[1]*100 + j[2]) }
	var (
		mu       sync.Mutex
		firstErr string
	)
	depCols := make([]ilin.Vec, deps.Cols)
	for l := range depCols {
		depCols[l] = deps.Col(l)
	}
	kernel := PointKernel(func(j ilin.Vec, reads [][]float64, out []float64) {
		for l, r := range reads {
			src := j.Sub(depCols[l])
			want := -1.0
			if nest.Space.Contains(src) {
				want = enc(src)
			}
			if r[0] != want {
				mu.Lock()
				if firstErr == "" {
					firstErr = fmt.Sprintf("at %v dep %d (src %v): read %v, want %v", j, l, src, r[0], want)
				}
				mu.Unlock()
			}
		}
		out[0] = enc(j)
	})
	init := func(j ilin.Vec, out []float64) { out[0] = -1 }
	p, err := NewProgram(ts, 2, 1, kernel, init)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.RunParallelOpts(RunOptions{}); err != nil {
		t.Fatal(err)
	}
	if firstErr != "" {
		t.Fatalf("communication placement error: %s", firstErr)
	}
}

func TestNewProgramErrors(t *testing.T) {
	nest := mustBox(t, []string{"i", "j"}, []int64{0, 0}, []int64{5, 5},
		ilin.MatFromRows([]int64{1, 0}, []int64{0, 1}))
	tr, _ := tiling.Rectangular(2, 2)
	ts, err := tiling.Analyze(nest, tr.H)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewProgram(ts, 0, 0, sumKernel, nil); err == nil {
		t.Error("width 0 not rejected")
	}
	if _, err := NewProgram(ts, 0, 1, Kernel{}, nil); err == nil {
		t.Error("zero kernel not rejected")
	}
	for name, k := range map[string]Kernel{
		"two slots at width 1":    Statement(Const(1), Const(2)),
		"dependence out of range": Statement(Read(2, 0)),
		"slot out of range":       Statement(Read(0, 1)),
	} {
		if _, err := NewProgram(ts, 0, 1, k, nil); err == nil {
			t.Errorf("statement with %s not rejected", name)
		}
	}
	if _, err := NewProgram(ts, 5, 1, sumKernel, nil); err == nil {
		t.Error("bad mapping dim not rejected")
	}
}

func TestAutoMappingDim(t *testing.T) {
	nest := mustBox(t, []string{"i", "j"}, []int64{0, 0}, []int64{5, 29},
		ilin.MatFromRows([]int64{1, 0}, []int64{0, 1}))
	tr, _ := tiling.Rectangular(2, 2)
	ts, _ := tiling.Analyze(nest, tr.H)
	p, err := NewProgram(ts, -1, 1, sumKernel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.Dist.M != 1 {
		t.Errorf("auto mapping dim = %d, want 1", p.Dist.M)
	}
	comparePrograms(t, p)
}

func TestGlobalBasics(t *testing.T) {
	g := NewGlobal(ilin.NewVec(-1, 0), ilin.NewVec(1, 2), 2)
	g.Set(ilin.NewVec(0, 1), []float64{3, 4})
	if v := g.At(ilin.NewVec(0, 1)); v[0] != 3 || v[1] != 4 {
		t.Errorf("At = %v", v)
	}
	defer func() {
		if recover() == nil {
			t.Error("At outside box did not panic")
		}
	}()
	g.At(ilin.NewVec(9, 9))
}

// TestGlobalRows: a fresh Global is NaN throughout (whatever its size: the
// fill doubles), Row aliases the contiguous innermost run it names and
// refuses one that leaves the box, and setRow stores adjacent points by copy
// and strided ones point by point.
func TestGlobalRows(t *testing.T) {
	for _, hi := range []int64{0, 1, 2, 6, 15} {
		g := NewGlobal(ilin.NewVec(0, 0), ilin.NewVec(2, hi), 3)
		for i, v := range g.data {
			if !math.IsNaN(v) {
				t.Fatalf("box up to %d: cell %d of a fresh Global is %v, want NaN", hi, i, v)
			}
		}
	}
	g := NewGlobal(ilin.NewVec(-1, 0), ilin.NewVec(1, 4), 2)
	g.setRow(ilin.NewVec(0, 1), ilin.NewVec(0, 3), 3, []float64{1, 2, 3, 4, 5, 6})     // along the innermost dimension
	g.setRow(ilin.NewVec(-1, 4), ilin.NewVec(1, 0), 3, []float64{7, 8, 9, 10, 11, 12}) // a diagonal
	g.setRow(ilin.NewVec(1, 4), ilin.NewVec(1, 4), 1, []float64{13, 14})
	for _, c := range []struct {
		j    ilin.Vec
		want [2]float64
	}{
		{ilin.NewVec(0, 1), [2]float64{1, 2}}, {ilin.NewVec(0, 3), [2]float64{5, 6}},
		{ilin.NewVec(-1, 4), [2]float64{7, 8}}, {ilin.NewVec(0, 2), [2]float64{9, 10}}, {ilin.NewVec(1, 0), [2]float64{11, 12}},
		{ilin.NewVec(1, 4), [2]float64{13, 14}},
	} {
		if v := g.At(c.j); v[0] != c.want[0] || v[1] != c.want[1] {
			t.Errorf("At(%v) = %v, want %v", c.j, v, c.want)
		}
	}
	if row := g.Row(ilin.NewVec(0, 1), 3); len(row) != 6 || row[0] != 1 || row[2] != 9 || row[5] != 6 {
		t.Errorf("Row((0,1), 3) = %v", row)
	}
	for name, bad := range map[string]func(){
		"row past the box":   func() { g.Row(ilin.NewVec(0, 3), 3) },
		"setRow end outside": func() { g.setRow(ilin.NewVec(0, 3), ilin.NewVec(0, 5), 3, make([]float64, 6)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			bad()
		}()
	}
}

func TestGlobalMaxAbsDiffNaN(t *testing.T) {
	g1 := NewGlobal(ilin.NewVec(0), ilin.NewVec(1), 1)
	g2 := NewGlobal(ilin.NewVec(0), ilin.NewVec(1), 1)
	g1.Set(ilin.NewVec(0), []float64{1})
	// g2 left NaN at 0.
	pts := func(fn func(j ilin.Vec) bool) { fn(ilin.NewVec(0)) }
	if d, _ := g1.MaxAbsDiff(g2, pts); d == 0 {
		t.Error("NaN should yield nonzero diff")
	}
}

// TestGlobalMaxAbsDiffFirstWorst: over the same box and over different
// boxes alike, the answer is the largest difference (+Inf for a NaN) at the
// first point that reaches it.
func TestGlobalMaxAbsDiffFirstWorst(t *testing.T) {
	pts := func(fn func(j ilin.Vec) bool) {
		for i := int64(1); i <= 4; i++ {
			fn(ilin.NewVec(i, 1))
		}
	}
	fill := func(lo, hi ilin.Vec, vals ...float64) *Global {
		g := NewGlobal(lo, hi, 1)
		for i, v := range vals {
			g.Set(ilin.NewVec(int64(i+1), 1), []float64{v})
		}
		return g
	}
	a := fill(ilin.NewVec(0, 0), ilin.NewVec(5, 2), 1, 2, 3, 4)
	for _, lo := range []ilin.Vec{ilin.NewVec(0, 0), ilin.NewVec(1, 1)} {
		b := fill(lo, ilin.NewVec(5, 2), 1, 4, 3, 6)
		if d, at := a.MaxAbsDiff(b, pts); d != 2 || !at.Equal(ilin.NewVec(2, 1)) {
			t.Errorf("boxes from %v: MaxAbsDiff = %v at %v, want 2 at [2 1]", lo, d, at)
		}
		b.Set(ilin.NewVec(3, 1), []float64{math.NaN()})
		if d, at := a.MaxAbsDiff(b, pts); !math.IsInf(d, 1) || !at.Equal(ilin.NewVec(3, 1)) {
			t.Errorf("boxes from %v: MaxAbsDiff with a NaN = %v at %v, want +Inf at [3 1]", lo, d, at)
		}
	}
}

// TestTiledSequentialMatchesOriginal: the §2.3 reordered (tiled) sequential
// execution equals the original-order execution — the executable legality
// proof — on rectangular, non-rectangular and stride-2 tilings.
func TestTiledSequentialMatchesOriginal(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T) *Program
	}{
		{"rect2d", func(t *testing.T) *Program {
			nest := mustBox(t, []string{"i", "j"}, []int64{0, 0}, []int64{17, 13},
				ilin.MatFromRows([]int64{1, 0}, []int64{0, 1}))
			tr, _ := tiling.Rectangular(4, 3)
			return buildProgram(t, nest, tr.H, 0, 1, sumKernel, zeroInit)
		}},
		{"sorNR", func(t *testing.T) *Program {
			nest := sorNest(t, 4, 8)
			h := ilin.NewRatMat(3, 3)
			h.Set(0, 0, rat.New(1, 2))
			h.Set(1, 1, rat.New(1, 5))
			h.Set(2, 0, rat.New(-1, 4))
			h.Set(2, 2, rat.New(1, 4))
			return buildProgram(t, nest, h, 2, 1, sumKernel, zeroInit)
		}},
		{"jacobiStride2", func(t *testing.T) *Program {
			deps := ilin.MatFromRows(
				[]int64{1, 1, 1, 1, 1},
				[]int64{1, 2, 0, 1, 1},
				[]int64{1, 1, 1, 2, 0},
			)
			nest := mustBox(t, []string{"t", "i", "j"}, []int64{0, 0, 0}, []int64{7, 9, 9}, deps)
			h := ilin.NewRatMat(3, 3)
			h.Set(0, 0, rat.New(1, 2))
			h.Set(0, 1, rat.New(-1, 4))
			h.Set(1, 1, rat.New(1, 4))
			h.Set(2, 2, rat.New(1, 5))
			return buildProgram(t, nest, h, 0, 1, sumKernel, zeroInit)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := c.run(t)
			orig, err := p.RunSequential()
			if err != nil {
				t.Fatal(err)
			}
			tiled, err := p.RunTiledSequential()
			if err != nil {
				t.Fatal(err)
			}
			if diff, at := orig.MaxAbsDiff(tiled, p.ScanSpace); diff != 0 {
				t.Fatalf("tiled reordering differs by %g at %v", diff, at)
			}
		})
	}
}

func mustBox(tb testing.TB, names []string, lo, hi []int64, deps *ilin.Mat) *loopnest.Nest {
	tb.Helper()
	nest, err := loopnest.Box(names, lo, hi, deps)
	if err != nil {
		tb.Fatal(err)
	}
	return nest
}
