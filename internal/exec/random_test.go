package exec

import (
	"testing"
	"testing/quick"

	"tilespace/internal/ilin"
	"tilespace/internal/loopnest"
	"tilespace/internal/tiling"
)

// TestQuickRandomTilings2D is the end-to-end property test: for random
// integer tile-edge matrices P (hence arbitrary parallelepiped tilings)
// and dependence vectors drawn from P's own columns (legal by
// construction: H·(P·c) = c ≥ 0), the parallel execution must equal the
// sequential one exactly on a random box.
func TestQuickRandomTilings2D(t *testing.T) {
	f := func(p11, p12, p21, p22 uint8, hi1, hi2 uint8, mapDim bool) bool {
		// Tile edges with entries in [1,4] on the diagonal and [-2,2] off
		// it; skip singular or overly skewed matrices.
		p := ilin.MatFromRows(
			[]int64{int64(p11%4) + 1, int64(p12%5) - 2},
			[]int64{int64(p21%5) - 2, int64(p22%4) + 1},
		)
		if d := p.Det(); d == 0 || d < 0 {
			return true
		}
		tr, err := tiling.FromP(p)
		if err != nil {
			return true
		}
		// Dependence candidates: columns of P and their sum (all satisfy
		// H·d ≥ 0); keep the lexicographically positive ones.
		var depCols []ilin.Vec
		for _, cand := range []ilin.Vec{p.Col(0), p.Col(1), p.Col(0).Add(p.Col(1))} {
			if cand.LexPositive() {
				depCols = append(depCols, cand)
			}
		}
		if len(depCols) == 0 {
			return true
		}
		deps := ilin.NewMat(2, len(depCols))
		for i, d := range depCols {
			deps.SetCol(i, d)
		}
		nest, err := loopnest.Box([]string{"i", "j"},
			[]int64{0, 0}, []int64{int64(hi1%12) + 6, int64(hi2%12) + 6}, deps)
		if err != nil {
			return true
		}
		ts, err := tiling.Analyze(nest, tr.H)
		if err != nil {
			// Legal-but-unsupported cases (dependence longer than tile,
			// non-{0,1} tile deps) are rejected with a clear error; that
			// is correct behaviour, not a failure.
			return true
		}
		m := 0
		if mapDim {
			m = 1
		}
		prog, err := NewProgram(ts, m, 1, sumStatement(ts.Nest.Q()), nil)
		if err != nil {
			// stride/extent divisibility violations are legitimate
			// rejections
			return true
		}
		seq, err := prog.RunSequential()
		if err != nil {
			return false
		}
		par, _, err := prog.RunParallelOpts(RunOptions{})
		if err != nil {
			return false
		}
		diff, _ := seq.MaxAbsDiff(par, prog.ScanSpace)
		if diff != 0 {
			return false
		}
		// And the §2.3 tiled reordering must agree too.
		tiled, err := prog.RunTiledSequential()
		if err != nil {
			return false
		}
		diff, _ = seq.MaxAbsDiff(tiled, prog.ScanSpace)
		return diff == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestFourDimensionalNest exercises n = 4 (nothing in the framework is
// specialized to 3-D): a 4-deep nest with unit and diagonal dependencies
// under a rectangular tiling, fully verified.
func TestFourDimensionalNest(t *testing.T) {
	deps := ilin.MatFromRows(
		[]int64{1, 0, 0, 0, 1},
		[]int64{0, 1, 0, 0, 1},
		[]int64{0, 0, 1, 0, 0},
		[]int64{0, 0, 0, 1, 1},
	)
	nest := mustBox(t, []string{"a", "b", "c", "d"},
		[]int64{0, 0, 0, 0}, []int64{5, 7, 5, 6}, deps)
	tr, err := tiling.Rectangular(2, 3, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := tiling.Analyze(nest, tr.H)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := nest.Size()
	if got := ts.TotalPoints(); got != want {
		t.Fatalf("TotalPoints = %d, want %d", got, want)
	}
	p, err := NewProgram(ts, -1, 1, sumStatement(ts.Nest.Q()), nil)
	if err != nil {
		t.Fatal(err)
	}
	comparePrograms(t, p)
}

// TestNonRect4D: a skewed tile shape in four dimensions.
func TestNonRect4D(t *testing.T) {
	p := ilin.MatFromRows(
		[]int64{2, 0, 0, 0},
		[]int64{0, 2, 0, 0},
		[]int64{0, 0, 3, 0},
		[]int64{2, 0, 0, 3},
	)
	tr, err := tiling.FromP(p)
	if err != nil {
		t.Fatal(err)
	}
	deps := ilin.MatFromRows(
		[]int64{1, 0},
		[]int64{0, 1},
		[]int64{0, 0},
		[]int64{1, 0},
	)
	if !tr.Legal(deps) {
		t.Fatal("expected legal 4-D tiling")
	}
	nest := mustBox(t, []string{"a", "b", "c", "d"},
		[]int64{0, 0, 0, 0}, []int64{7, 5, 5, 8}, deps)
	ts, err := tiling.Analyze(nest, tr.H)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := NewProgram(ts, 3, 1, sumStatement(ts.Nest.Q()), nil)
	if err != nil {
		t.Fatal(err)
	}
	comparePrograms(t, prog)
}

// TestEmptyTileInsideChain pins a case the random search above found: under
// this skewed tiling a chain's span holds a tile with no iteration points,
// which the plan compiler must accept (no bounding box, no boundary reads).
func TestEmptyTileInsideChain(t *testing.T) {
	p := ilin.MatFromRows([]int64{4, -2}, []int64{-1, 1})
	tr, err := tiling.FromP(p)
	if err != nil {
		t.Fatal(err)
	}
	deps := ilin.NewMat(2, 2)
	deps.SetCol(0, p.Col(0))
	deps.SetCol(1, p.Col(0).Add(p.Col(1)))
	nest := mustBox(t, []string{"i", "j"}, []int64{0, 0}, []int64{13, 6}, deps)
	ts, err := tiling.Analyze(nest, tr.H)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := NewProgram(ts, 0, 1, sumStatement(ts.Nest.Q()), nil)
	if err != nil {
		t.Fatal(err)
	}
	empty := 0
	for r := 0; r < prog.Dist.NumProcs(); r++ {
		for _, sl := range mustPlan(t, prog, r).Slots {
			if sl.Npts == 0 {
				empty++
			}
		}
	}
	if empty == 0 {
		t.Fatal("fixture no longer has an empty tile inside a chain")
	}
	comparePrograms(t, prog)
}
