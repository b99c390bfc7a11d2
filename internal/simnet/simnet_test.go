package simnet_test

import (
	"strings"
	"testing"

	"tilespace/internal/apps"
	"tilespace/internal/distrib"
	"tilespace/internal/ilin"
	"tilespace/internal/loopnest"
	"tilespace/internal/simnet"
	"tilespace/internal/tiling"
)

func distFor(t *testing.T, app *apps.App, h *ilin.RatMat) *distrib.Distribution {
	t.Helper()
	ts, err := tiling.Analyze(app.Nest, h)
	if err != nil {
		t.Fatal(err)
	}
	d, err := distrib.New(ts, app.MapDim)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestSimulateBasics(t *testing.T) {
	app, err := apps.SOR(6, 12)
	if err != nil {
		t.Fatal(err)
	}
	d := distFor(t, app, app.Rect.H(3, 6, 7))
	par := simnet.FastEthernetPIII()
	res, err := simnet.Simulate(d, par)
	if err != nil {
		t.Fatal(err)
	}
	wantPts, _ := app.Nest.Size()
	if res.Points != wantPts {
		t.Errorf("Points = %d, want %d", res.Points, wantPts)
	}
	if res.Procs != d.NumProcs() {
		t.Errorf("Procs = %d", res.Procs)
	}
	if res.Speedup <= 0 || res.Speedup > float64(res.Procs) {
		t.Errorf("Speedup = %v with %d procs", res.Speedup, res.Procs)
	}
	if res.Utilization <= 0 || res.Utilization > 1 {
		t.Errorf("Utilization = %v", res.Utilization)
	}
	if res.Messages == 0 || res.BytesSent == 0 {
		t.Error("expected some traffic")
	}
	if res.Steps <= 0 {
		t.Errorf("Steps = %d", res.Steps)
	}
}

func TestSimulateDeterministic(t *testing.T) {
	app, err := apps.ADI(6, 12)
	if err != nil {
		t.Fatal(err)
	}
	d := distFor(t, app, app.NonRect[2].H(2, 4, 4))
	par := simnet.FastEthernetPIII()
	par.Width = 2
	r1, err := simnet.Simulate(d, par)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := simnet.Simulate(d, par)
	if err != nil {
		t.Fatal(err)
	}
	if *r1 != *r2 {
		t.Errorf("non-deterministic simulation: %+v vs %+v", r1, r2)
	}
}

// TestSingleProcessorSpeedupIsOne: with one processor there is no
// communication and makespan equals the sequential time exactly.
func TestSingleProcessorSpeedupIsOne(t *testing.T) {
	nest := mustBox(t, []string{"i", "j"}, []int64{0, 0}, []int64{19, 3},
		ilin.MatFromRows([]int64{1, 0}, []int64{0, 1}))
	tr, _ := tiling.Rectangular(4, 4) // 5×1 tiles mapped along dim 0
	ts, err := tiling.Analyze(nest, tr.H)
	if err != nil {
		t.Fatal(err)
	}
	d, err := distrib.New(ts, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumProcs() != 1 {
		t.Fatalf("procs = %d", d.NumProcs())
	}
	res, err := simnet.Simulate(d, simnet.FastEthernetPIII())
	if err != nil {
		t.Fatal(err)
	}
	if res.Speedup != 1 || res.Messages != 0 {
		t.Errorf("Speedup = %v, Messages = %d; want 1 and 0", res.Speedup, res.Messages)
	}
}

// TestNonRectBeatsRect is the paper's headline result on a small SOR
// configuration: with equal tile size, communication volume and processor
// count, the cone-derived tiling finishes earlier (t_nr = t_r − M/z).
func TestNonRectBeatsRect(t *testing.T) {
	app, err := apps.SOR(12, 24)
	if err != nil {
		t.Fatal(err)
	}
	const x, y, z = 3, 9, 8
	par := simnet.FastEthernetPIII()
	rect, err := simnet.Simulate(distFor(t, app, app.Rect.H(x, y, z)), par)
	if err != nil {
		t.Fatal(err)
	}
	nr, err := simnet.Simulate(distFor(t, app, app.NonRect[0].H(x, y, z)), par)
	if err != nil {
		t.Fatal(err)
	}
	if nr.Procs != rect.Procs {
		t.Fatalf("processor counts differ: %d vs %d", nr.Procs, rect.Procs)
	}
	if nr.Points != rect.Points {
		t.Fatalf("points differ: %d vs %d", nr.Points, rect.Points)
	}
	if nr.Steps >= rect.Steps {
		t.Errorf("non-rect steps %d should be < rect steps %d", nr.Steps, rect.Steps)
	}
	if nr.Makespan >= rect.Makespan {
		t.Errorf("non-rect makespan %v should beat rect %v", nr.Makespan, rect.Makespan)
	}
}

// TestADIOrdering reproduces §4.3's t_nr3 < t_nr1 = t_nr2 < t_r with equal
// y and z factors.
func TestADIOrdering(t *testing.T) {
	app, err := apps.ADI(16, 16)
	if err != nil {
		t.Fatal(err)
	}
	const x, y, z = 4, 4, 4
	par := simnet.FastEthernetPIII()
	par.Width = 2
	times := map[string]float64{}
	families := append([]apps.TilingFamily{app.Rect}, app.NonRect...)
	for _, f := range families {
		res, err := simnet.Simulate(distFor(t, app, f.H(x, y, z)), par)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		times[f.Name] = res.Makespan
	}
	if !(times["nr3"] < times["nr1"] && times["nr3"] < times["nr2"]) {
		t.Errorf("nr3 should be fastest: %v", times)
	}
	if !(times["nr1"] < times["rect"] && times["nr2"] < times["rect"]) {
		t.Errorf("nr1/nr2 should beat rect: %v", times)
	}
}

// TestOverlapAtLeastAsFast: the overlapping scheme of [8] can only help.
func TestOverlapAtLeastAsFast(t *testing.T) {
	app, err := apps.SOR(8, 16)
	if err != nil {
		t.Fatal(err)
	}
	d := distFor(t, app, app.Rect.H(2, 8, 4))
	par := simnet.FastEthernetPIII()
	blocking, err := simnet.Simulate(d, par)
	if err != nil {
		t.Fatal(err)
	}
	par.Overlap = true
	overlapped, err := simnet.Simulate(d, par)
	if err != nil {
		t.Fatal(err)
	}
	if overlapped.Makespan > blocking.Makespan {
		t.Errorf("overlap %v slower than blocking %v", overlapped.Makespan, blocking.Makespan)
	}
}

// TestStepsMatchTheory: for a rectangular tiling of a box, the schedule
// length is Σ_k (⌈size_k/tile_k⌉ − 1) + 1.
func TestStepsMatchTheory(t *testing.T) {
	nest := mustBox(t, []string{"i", "j"}, []int64{0, 0}, []int64{23, 15},
		ilin.MatFromRows([]int64{1, 0}, []int64{0, 1}))
	tr, _ := tiling.Rectangular(4, 4) // 6×4 tiles
	ts, err := tiling.Analyze(nest, tr.H)
	if err != nil {
		t.Fatal(err)
	}
	d, err := distrib.New(ts, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := simnet.Simulate(d, simnet.FastEthernetPIII())
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(5 + 3 + 1); res.Steps != want {
		t.Errorf("Steps = %d, want %d", res.Steps, want)
	}
}

func TestParamValidation(t *testing.T) {
	app, err := apps.SOR(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	d := distFor(t, app, app.Rect.H(2, 4, 4))
	bad := simnet.FastEthernetPIII()
	bad.IterTime = 0
	if _, err := simnet.Simulate(d, bad); err == nil {
		t.Error("zero IterTime not rejected")
	}
	bad = simnet.FastEthernetPIII()
	bad.Latency = -1
	if _, err := simnet.Simulate(d, bad); err == nil {
		t.Error("negative latency not rejected")
	}
	bad = simnet.FastEthernetPIII()
	bad.Width = 0
	if _, err := simnet.Simulate(d, bad); err == nil {
		t.Error("zero width not rejected")
	}
}

// TestLargerTilesFewerMessages: communication aggregation sanity.
func TestLargerTilesFewerMessages(t *testing.T) {
	app, err := apps.SOR(8, 16)
	if err != nil {
		t.Fatal(err)
	}
	par := simnet.FastEthernetPIII()
	small, err := simnet.Simulate(distFor(t, app, app.Rect.H(2, 8, 2)), par)
	if err != nil {
		t.Fatal(err)
	}
	large, err := simnet.Simulate(distFor(t, app, app.Rect.H(2, 8, 8)), par)
	if err != nil {
		t.Fatal(err)
	}
	if large.Messages >= small.Messages {
		t.Errorf("larger tiles should send fewer messages: %d vs %d", large.Messages, small.Messages)
	}
}

func TestSimulateTraced(t *testing.T) {
	app, err := apps.SOR(8, 16)
	if err != nil {
		t.Fatal(err)
	}
	d := distFor(t, app, app.NonRect[0].H(2, 8, 4))
	tr, err := simnet.SimulateTraced(d, simnet.FastEthernetPIII(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(tr.Events)) != tr.Result.Tiles {
		t.Fatalf("events = %d, tiles = %d", len(tr.Events), tr.Result.Tiles)
	}
	var lastEnd float64
	for _, e := range tr.Events {
		if !(e.Start <= e.RecvDone && e.RecvDone <= e.CompDone && e.CompDone <= e.End) {
			t.Fatalf("non-monotone event %+v", e)
		}
		if e.Waited < 0 {
			t.Fatalf("negative wait %+v", e)
		}
		if e.End > lastEnd {
			lastEnd = e.End
		}
	}
	if lastEnd != tr.Result.Makespan {
		t.Errorf("last event end %v != makespan %v", lastEnd, tr.Result.Makespan)
	}
	g := tr.Gantt(60)
	if !strings.Contains(g, "rank") || !strings.Contains(g, "C") {
		t.Errorf("gantt rendering:\n%s", g)
	}
	if _, idle := tr.CriticalRank(); idle < 0 || idle > 1 {
		t.Errorf("idle fraction %v out of range", idle)
	}
	// The traced run must not perturb the untraced result.
	plain, err := simnet.Simulate(d, simnet.FastEthernetPIII())
	if err != nil {
		t.Fatal(err)
	}
	if *plain != *tr.Result {
		t.Error("traced and plain results differ")
	}
}

func TestGanttEmptyAndTiny(t *testing.T) {
	tr := &simnet.Trace{Result: &simnet.Result{}}
	if !strings.Contains(tr.Gantt(5), "empty") {
		t.Error("empty trace rendering")
	}
}

func mustBox(t *testing.T, names []string, lo, hi []int64, deps *ilin.Mat) *loopnest.Nest {
	t.Helper()
	nest, err := loopnest.Box(names, lo, hi, deps)
	if err != nil {
		t.Fatal(err)
	}
	return nest
}
