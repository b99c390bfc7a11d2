package schedule

import (
	"testing"

	"tilespace/internal/apps"
	"tilespace/internal/distrib"
	"tilespace/internal/ilin"
	"tilespace/internal/simnet"
	"tilespace/internal/tiling"
)

func analyzed(t *testing.T, app *apps.App, h *ilin.RatMat) *tiling.TiledSpace {
	t.Helper()
	ts, err := tiling.Analyze(app.Nest, h)
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

func TestUniformValid(t *testing.T) {
	app, err := apps.SOR(8, 16)
	if err != nil {
		t.Fatal(err)
	}
	ts := analyzed(t, app, app.Rect.H(2, 6, 6))
	pi := Uniform(3)
	if !pi.Valid(ts) {
		t.Error("Π = [1,1,1] should satisfy all SOR tile deps")
	}
	bad := Linear{Pi: ilin.NewVec(0, 0, 1)}
	if bad.Valid(ts) {
		t.Error("Π = [0,0,1] cannot satisfy dep (1,0,0)")
	}
}

// TestSORScheduleAlgebra verifies §4.1's closed form: with common factors,
// t_nr = t_r − M/z (up to floor rounding at the boundaries ±1).
func TestSORScheduleAlgebra(t *testing.T) {
	const M, N = 24, 48
	const x, y, z = 6, 9, 8
	app, err := apps.SOR(M, N)
	if err != nil {
		t.Fatal(err)
	}
	pi := Uniform(3)
	lenR := pi.length(analyzed(t, app, app.Rect.H(x, y, z)))
	lenNR := pi.length(analyzed(t, app, app.NonRect[0].H(x, y, z)))
	want := int64(M / z) // the paper's t_r − t_nr = M/z
	got := lenR - lenNR
	if got < want-1 || got > want+1 {
		t.Errorf("schedule shortening = %d, paper predicts ≈ %d (t_r=%d, t_nr=%d)", got, want, lenR, lenNR)
	}
}

// TestADIScheduleAlgebra verifies the paper's §4.3 algebra exactly as
// stated: with j_max = (T, N, N), the schedule step of j_max's tile obeys
// t_nr1 = t_r − N/x, t_nr2 = t_r − N/x, t_nr3 = t_r − 2N/x (the paper
// writes the subtrahends as N/y, N/z, N/y + N/z under its equal-factor
// setup; the skewed row is scaled by 1/x).
func TestADIScheduleAlgebra(t *testing.T) {
	const T, N = 16, 32
	const x, y, z = 4, 8, 8
	app, err := apps.ADI(T, N)
	if err != nil {
		t.Fatal(err)
	}
	pi := Uniform(3)
	jMax := ilin.NewVec(T, N, N)
	step := func(h *ilin.RatMat) int64 {
		tr, err := tiling.New(h)
		if err != nil {
			t.Fatal(err)
		}
		return pi.step(tr.TileOf(jMax))
	}
	tR := step(app.Rect.H(x, y, z))
	if got := tR - step(app.NonRect[0].H(x, y, z)); got != N/x {
		t.Errorf("nr1: t_r - t_nr1 = %d, want N/x = %d", got, N/x)
	}
	if got := tR - step(app.NonRect[1].H(x, y, z)); got != N/x {
		t.Errorf("nr2: t_r - t_nr2 = %d, want N/x = %d", got, N/x)
	}
	if got := tR - step(app.NonRect[2].H(x, y, z)); got != 2*N/x {
		t.Errorf("nr3: t_r - t_nr3 = %d, want 2N/x = %d", got, 2*N/x)
	}
}

// TestADIPipelinedOrdering: under the §3.1 execution model (chains with
// blocking receives, the UET abstraction) the family ordering of the
// paper's Figure 9/10 holds: rect slowest, nr3 fastest.
func TestADIPipelinedOrdering(t *testing.T) {
	const T, N = 16, 32
	const x, y, z = 4, 8, 8
	app, err := apps.ADI(T, N)
	if err != nil {
		t.Fatal(err)
	}
	lens := map[string]int64{}
	for _, f := range append([]apps.TilingFamily{app.Rect}, app.NonRect...) {
		ts := analyzed(t, app, f.H(x, y, z))
		d, err := distrib.New(ts, app.MapDim)
		if err != nil {
			t.Fatal(err)
		}
		lens[f.Name] = PipelinedLength(d)
	}
	if !(lens["nr3"] < lens["nr1"] && lens["nr3"] < lens["nr2"]) {
		t.Errorf("nr3 should have the shortest pipeline: %v", lens)
	}
	if !(lens["nr1"] < lens["rect"] && lens["nr2"] < lens["rect"]) {
		t.Errorf("nr1/nr2 should beat rect: %v", lens)
	}
	if lens["nr1"] != lens["nr2"] {
		t.Errorf("nr1 and nr2 should tie with y=z: %v", lens)
	}
}

// TestJacobiScheduleAlgebra verifies §4.2's closed form exactly as
// stated: with j_max = (T, T+I, T+J) in skewed coordinates,
// t_nr = t_r − (T+I)/(2x).
func TestJacobiScheduleAlgebra(t *testing.T) {
	const T, N = 12, 24
	const x, y, z = 3, 12, 9
	app, err := apps.Jacobi(T, N)
	if err != nil {
		t.Fatal(err)
	}
	pi := Uniform(3)
	jMax := ilin.NewVec(T, T+N, T+N)
	step := func(h *ilin.RatMat) int64 {
		tr, err := tiling.New(h)
		if err != nil {
			t.Fatal(err)
		}
		return pi.step(tr.TileOf(jMax))
	}
	got := step(app.Rect.H(x, y, z)) - step(app.NonRect[0].H(x, y, z))
	if want := int64((T + N) / (2 * x)); got != want {
		t.Errorf("t_r - t_nr = %d, want (T+I)/2x = %d", got, want)
	}
	// And the execution-model direction: nr pipelines strictly shorter.
	tsR := analyzed(t, app, app.Rect.H(x, y, z))
	tsN := analyzed(t, app, app.NonRect[0].H(x, y, z))
	dR, err := distrib.New(tsR, app.MapDim)
	if err != nil {
		t.Fatal(err)
	}
	dN, err := distrib.New(tsN, app.MapDim)
	if err != nil {
		t.Fatal(err)
	}
	if PipelinedLength(dN) >= PipelinedLength(dR) {
		t.Error("non-rect Jacobi pipeline should be shorter")
	}
}

// TestLengthMatchesSimulatorSteps: the simulator's Steps field is computed
// independently (wavefront min/max during event processing) and must agree
// with the schedule length.
func TestLengthMatchesSimulatorSteps(t *testing.T) {
	app, err := apps.SOR(12, 24)
	if err != nil {
		t.Fatal(err)
	}
	ts := analyzed(t, app, app.NonRect[0].H(3, 9, 6))
	d, err := distrib.New(ts, app.MapDim)
	if err != nil {
		t.Fatal(err)
	}
	res, err := simnet.Simulate(d, simnet.FastEthernetPIII())
	if err != nil {
		t.Fatal(err)
	}
	if got := Uniform(3).length(ts); got != res.Steps {
		t.Errorf("schedule length %d != simulator Steps %d", got, res.Steps)
	}
}

// TestLengthFromExtremes reproduces the paper's j_max analysis for SOR:
// the closed form over (M, M+N, 2M+N) agrees with the exhaustive scan.
func TestLengthFromExtremes(t *testing.T) {
	const M, N = 24, 48
	app, err := apps.SOR(M, N)
	if err != nil {
		t.Fatal(err)
	}
	ts := analyzed(t, app, app.NonRect[0].H(6, 9, 8))
	pi := Uniform(3)
	jMin := ilin.NewVec(1, 2, 3)       // first skewed iteration
	jMax := ilin.NewVec(M, M+N, 2*M+N) // the paper's j_max
	closed := lengthFromExtremes(ts.T, jMin, jMax, pi)
	if scan := pi.length(ts); closed != scan {
		t.Errorf("closed form %d != scanned %d", closed, scan)
	}
}

// TestPredictTracksSimulation: the analytic per-step model should land
// within 2× of the simulated makespan for a compute-dominated config, and
// the predicted rect/nr ratio should preserve who wins.
func TestPredictTracksSimulation(t *testing.T) {
	app, err := apps.SOR(24, 48)
	if err != nil {
		t.Fatal(err)
	}
	cm := CostModel{Params: simnet.FastEthernetPIII()}
	makespans := map[string]struct{ est, sim float64 }{}
	for _, f := range []apps.TilingFamily{app.Rect, app.NonRect[0]} {
		ts := analyzed(t, app, f.H(6, 9, 8))
		d, err := distrib.New(ts, app.MapDim)
		if err != nil {
			t.Fatal(err)
		}
		est, err := cm.Predict(d)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := simnet.Simulate(d, cm.Params)
		if err != nil {
			t.Fatal(err)
		}
		if ratio := est.Total / sim.Makespan; ratio < 0.5 || ratio > 2.0 {
			t.Errorf("%s: model/sim ratio %.2f out of band (est %.4f, sim %.4f)", f.Name, ratio, est.Total, sim.Makespan)
		}
		makespans[f.Name] = struct{ est, sim float64 }{est.Total, sim.Makespan}
	}
	if makespans["nr"].est >= makespans["rect"].est {
		t.Error("model should predict nr < rect")
	}
	if makespans["nr"].sim >= makespans["rect"].sim {
		t.Error("simulation should have nr < rect")
	}
}

func TestPredictErrors(t *testing.T) {
	app, err := apps.SOR(8, 16)
	if err != nil {
		t.Fatal(err)
	}
	ts := analyzed(t, app, app.Rect.H(2, 6, 6))
	d, err := distrib.New(ts, app.MapDim)
	if err != nil {
		t.Fatal(err)
	}
	bad := CostModel{Params: simnet.Params{}}
	if _, err := bad.Predict(d); err == nil {
		t.Error("invalid params not rejected")
	}
}

func TestLengthEmpty(t *testing.T) {
	if got := (Linear{Pi: ilin.NewVec(1)}).step(ilin.NewVec(5)); got != 5 {
		t.Errorf("step = %d", got)
	}
}

// step returns the (unshifted) schedule step of a tile.
func (l Linear) step(jS ilin.Vec) int64 { return l.Pi.Dot(jS) }

// length returns the number of schedule steps over all valid tiles:
// max Π·j^S − min Π·j^S + 1. This is the quantity the paper computes as
// Π·⌊H·j_max⌋ − Π·⌊H·j_min⌋ + 1.
func (l Linear) length(ts *tiling.TiledSpace) int64 {
	first := true
	var lo, hi int64
	ts.ScanTiles(func(jS ilin.Vec) bool {
		s := l.step(jS)
		if first {
			lo, hi = s, s
			first = false
		} else {
			lo, hi = min(lo, s), max(hi, s)
		}
		return true
	})
	if first {
		return 0
	}
	return hi - lo + 1
}

// lengthFromExtremes evaluates the paper's closed form using only the last
// and first iteration points: Π·⌊H·j_max⌋ − Π·⌊H·j_min⌋ + 1 — the §4
// quantity behind t_r and t_nr. For skewed tilings this is *not* the
// global wavefront range (some tiles have larger Π·j^S than j_max's tile);
// it is the completion step of the pipelined execution, which
// PipelinedLength computes exactly from the tile graph.
func lengthFromExtremes(t *tiling.Transform, jMin, jMax ilin.Vec, pi Linear) int64 {
	return pi.step(t.TileOf(jMax)) - pi.step(t.TileOf(jMin)) + 1
}
