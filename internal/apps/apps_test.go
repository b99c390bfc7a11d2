package apps

import (
	"reflect"
	"testing"

	"tilespace/internal/cone"
	"tilespace/internal/distrib"
	"tilespace/internal/exec"
	"tilespace/internal/ilin"
	"tilespace/internal/simnet"
	"tilespace/internal/tiling"
)

// colSet collects a dependence matrix's columns as a set of strings.
func colSet(d *ilin.Mat) map[string]bool {
	s := map[string]bool{}
	for l := 0; l < d.Cols; l++ {
		s[d.Col(l).String()] = true
	}
	return s
}

// TestSORSkewedDepsMatchPaper pins §4.1: the skewed SOR dependence columns
// are exactly {(1,1,2),(0,1,0),(1,0,2),(1,1,1),(0,0,1)}.
func TestSORSkewedDepsMatchPaper(t *testing.T) {
	app, err := SOR(4, 6)
	if err != nil {
		t.Fatal(err)
	}
	got := colSet(app.Nest.Deps)
	want := ilin.MatFromRows(
		[]int64{1, 0, 1, 1, 0},
		[]int64{1, 1, 0, 1, 0},
		[]int64{2, 0, 2, 1, 1},
	)
	wantSet := colSet(want)
	if len(got) != len(wantSet) {
		t.Fatalf("got %d distinct deps, want %d", len(got), len(wantSet))
	}
	for k := range wantSet {
		if !got[k] {
			t.Errorf("missing skewed dep %s", k)
		}
	}
}

// TestJacobiSkewedDepsMatchPaper pins §4.2's skewed dependence columns.
func TestJacobiSkewedDepsMatchPaper(t *testing.T) {
	app, err := Jacobi(4, 6)
	if err != nil {
		t.Fatal(err)
	}
	got := colSet(app.Nest.Deps)
	want := ilin.MatFromRows(
		[]int64{1, 1, 1, 1, 1},
		[]int64{1, 2, 0, 1, 1},
		[]int64{1, 1, 1, 2, 0},
	)
	for k := range colSet(want) {
		if !got[k] {
			t.Errorf("missing skewed dep %s", k)
		}
	}
}

// TestADIDepsMatchPaper pins §4.3's D = [[1,1,1],[0,1,0],[0,0,1]].
func TestADIDepsMatchPaper(t *testing.T) {
	app, err := ADI(4, 6)
	if err != nil {
		t.Fatal(err)
	}
	want := ilin.MatFromRows([]int64{1, 1, 1}, []int64{0, 1, 0}, []int64{0, 0, 1})
	if !reflect.DeepEqual(app.Nest.Deps, want) {
		t.Errorf("ADI D =\n%v", app.Nest.Deps)
	}
}

// TestTilingFamiliesSameTileSize: for common (x,y,z) every family of an
// app yields 1/|det H| = x·y·z — the property that makes the paper's
// comparisons fair.
func TestTilingFamiliesSameTileSize(t *testing.T) {
	apps := buildAll(t, 6, 8)
	const x, y, z = 2, 4, 3
	for _, app := range apps {
		families := append([]TilingFamily{app.Rect}, app.NonRect...)
		for _, f := range families {
			tr, err := tiling.New(f.H(x, y, z))
			if err != nil {
				t.Fatalf("%s/%s: %v", app.Name, f.Name, err)
			}
			if tr.TileSize != x*y*z {
				t.Errorf("%s/%s: tile size %d, want %d", app.Name, f.Name, tr.TileSize, x*y*z)
			}
		}
	}
}

// TestTilingsLegalAndConePlacement: all families are legal; the
// non-rectangular rows taken from the cone lie on its surface while the
// corresponding rectangular rows are interior (the Hodzic–Shang setup).
func TestTilingsLegalAndConePlacement(t *testing.T) {
	apps := buildAll(t, 6, 8)
	const x, y, z = 2, 4, 3
	for _, app := range apps {
		c := cone.New(app.Nest.Deps)
		families := append([]TilingFamily{app.Rect}, app.NonRect...)
		for _, f := range families {
			h := f.H(x, y, z)
			if !c.LegalTiling(h) {
				t.Errorf("%s/%s: illegal tiling", app.Name, f.Name)
			}
		}
		// The distinguishing row of each non-rect family must be on the
		// cone surface.
		for _, f := range app.NonRect {
			h := f.H(x, y, z)
			onSurface := func(row ilin.RatVec) bool { return c.Contains(row) && !c.InInterior(row) }
			if !onSurface(h.Row(0)) && !onSurface(h.Row(2)) {
				t.Errorf("%s/%s: no modified row on the cone surface", app.Name, f.Name)
			}
		}
	}
}

func buildAll(t *testing.T, a, b int64) []*App {
	t.Helper()
	sor, err := SOR(a, b)
	if err != nil {
		t.Fatal(err)
	}
	jac, err := Jacobi(a, b)
	if err != nil {
		t.Fatal(err)
	}
	adi, err := ADI(a, b)
	if err != nil {
		t.Fatal(err)
	}
	return []*App{sor, jac, adi}
}

// runBoth executes an app under a tiling both sequentially and in parallel
// and requires bit-identical results.
func runBoth(t *testing.T, app *App, h *ilin.RatMat) {
	t.Helper()
	ts, err := tiling.Analyze(app.Nest, h)
	if err != nil {
		t.Fatalf("%s: %v", app.Name, err)
	}
	p, err := exec.NewProgram(ts, app.MapDim, app.Width, app.Kernel, app.Initial)
	if err != nil {
		t.Fatalf("%s: %v", app.Name, err)
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
		t.Fatalf("%s: parallel differs by %g at %v", app.Name, diff, at)
	}
}

// TestSORParallelMatchesSequential runs the real SOR stencil under both
// §4.1 tilings.
func TestSORParallelMatchesSequential(t *testing.T) {
	app, err := SOR(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	runBoth(t, app, app.Rect.H(2, 4, 4))
	runBoth(t, app, app.NonRect[0].H(2, 4, 4))
}

func TestJacobiParallelMatchesSequential(t *testing.T) {
	app, err := Jacobi(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	runBoth(t, app, app.Rect.H(2, 4, 4))
	runBoth(t, app, app.NonRect[0].H(2, 4, 4))
}

func TestADIParallelMatchesSequential(t *testing.T) {
	app, err := ADI(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	runBoth(t, app, app.Rect.H(2, 3, 3))
	for _, f := range app.NonRect {
		runBoth(t, app, f.H(2, 3, 3))
	}
}

func TestConstructorErrors(t *testing.T) {
	if _, err := SOR(0, 5); err == nil {
		t.Error("SOR(0, 5) should fail")
	}
	if _, err := Jacobi(5, 0); err == nil {
		t.Error("Jacobi(5, 0) should fail")
	}
	if _, err := ADI(-1, 5); err == nil {
		t.Error("ADI(-1, 5) should fail")
	}
}

// TestJacobiOddYRejected: the Jacobi non-rectangular H needs an even y.
func TestJacobiOddYRejected(t *testing.T) {
	app, err := Jacobi(4, 6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tiling.New(app.NonRect[0].H(2, 3, 3)); err == nil {
		t.Error("odd y should be rejected (non-integral P)")
	}
}

// TestBoundaryValueDeterministic guards the test oracle itself.
func TestBoundaryValueDeterministic(t *testing.T) {
	if boundaryValue(3, 4) != boundaryValue(3, 4) {
		t.Error("boundaryValue not deterministic")
	}
	if adiCoef(2, 2) <= 0 {
		t.Error("adiCoef must be positive")
	}
}

// TestHeat3DParallelMatchesSequential: the 4-D extension verifies under
// both families (framework is dimension-generic).
func TestHeat3DParallelMatchesSequential(t *testing.T) {
	app, err := Heat3D(3, 6)
	if err != nil {
		t.Fatal(err)
	}
	runBoth(t, app, app.Rect.H(1, 4, 4))
	runBoth(t, app, app.NonRect[0].H(1, 4, 4))
}

func TestHeat3DNonRectBeatsRectSimulated(t *testing.T) {
	app, err := Heat3D(8, 12)
	if err != nil {
		t.Fatal(err)
	}
	// Equal factors for both families.
	speedup := func(h *ilin.RatMat) float64 {
		ts, err := tiling.Analyze(app.Nest, h)
		if err != nil {
			t.Fatal(err)
		}
		d, err := distrib.New(ts, app.MapDim)
		if err != nil {
			t.Fatal(err)
		}
		res, err := simnet.Simulate(d, simnet.FastEthernetPIII())
		if err != nil {
			t.Fatal(err)
		}
		return res.Speedup
	}
	r := speedup(app.Rect.H(2, 6, 7))
	nr := speedup(app.NonRect[0].H(2, 6, 7))
	if nr < r {
		t.Errorf("4-D non-rect speedup %.3f below rect %.3f", nr, r)
	}
}

func TestHeat3DErrors(t *testing.T) {
	if _, err := Heat3D(0, 4); err == nil {
		t.Error("Heat3D(0, 4) should fail")
	}
}
