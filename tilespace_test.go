package tilespace

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
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

func sumKernel(j []int64, reads [][]float64, out []float64) {
	s := 1.0
	for _, r := range reads {
		s += r[0]
	}
	out[0] = s
}

func TestFacadeEndToEnd(t *testing.T) {
	nest := quickNest(t)
	h, err := RectangularTiling(4, 5)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(nest, h, CompileOptions{MapDim: -1, Kernel: sumKernel})
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
	prog, err := Compile(nest, h, CompileOptions{Kernel: sumKernel})
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
	prog, err := Compile(nest, h, CompileOptions{Kernel: sumKernel})
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
	if _, err := prog.GenerateC(CodegenOptions{}); err == nil {
		t.Error("missing kernel statement not rejected")
	}
}

func TestNestBuilderTriangle(t *testing.T) {
	// Triangular space 0 ≤ i, i ≤ j ≤ 9 with dep (1,0) and (0,1).
	nest, err := NewNestBuilder("i", "j").
		Range(1, 0, 9).
		Constraint([]int64{-1, 0}, 0). // -i ≤ 0
		Constraint([]int64{1, -1}, 0). // i - j ≤ 0
		Dep(1, 0).Dep(0, 1).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	size, err := nest.Size()
	if err != nil {
		t.Fatal(err)
	}
	if size != 55 {
		t.Errorf("triangle size = %d, want 55", size)
	}
	h, _ := RectangularTiling(3, 3)
	prog, err := Compile(nest, h, CompileOptions{Kernel: sumKernel})
	if err != nil {
		t.Fatal(err)
	}
	seq, _ := prog.RunSequential()
	par, err := prog.RunParallel()
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := seq.MaxAbsDiff(par); d != 0 {
		t.Fatal("triangle space mismatch")
	}
}

func TestNestBuilderErrors(t *testing.T) {
	if _, err := NewNestBuilder("i").Constraint([]int64{1, 2}, 0).Build(); err == nil {
		t.Error("arity mismatch not rejected")
	}
	if _, err := NewNestBuilder("i").Range(0, 0, 5).Dep(-1).Build(); err == nil {
		t.Error("negative dep not rejected")
	}
	// Malformed integer inputs are errors, not panics.
	if _, err := NewNestBuilder("i", "j").Range(2, 0, 9).Build(); err == nil {
		t.Error("range of a variable beyond the nest not rejected")
	}
	if _, err := NewNestBuilder("i", "j").Range(0, 0, 9).Range(1, 0, 9).Dep(1, 0).Dep(0, 1, 4).Build(); err == nil {
		t.Error("ragged builder deps not rejected")
	}
	if _, err := NewLoopNest([]string{"i", "j"}, []int64{0, 0}, []int64{9, 9}, [][]int64{{1, 0}, {0, 1, 4}}); err == nil {
		t.Error("ragged deps not rejected")
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
	if sk.Depth() != 2 {
		t.Error("depth changed by skew")
	}
	sug, err := sk.SuggestTiling([]int64{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(sk, sug, CompileOptions{Kernel: sumKernel}); err != nil {
		t.Fatalf("suggested tiling failed to compile: %v", err)
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
	if _, err := TilingFromEdges([][]int64{{2, 0}, {1}}); err == nil {
		t.Error("ragged edges not rejected")
	}
	tl, err := TilingFromEdges([][]int64{{2, 0}, {-2, 4}})
	if err != nil {
		t.Fatal(err)
	}
	nest := quickNest(t)
	prog, err := Compile(nest, tl, CompileOptions{Kernel: sumKernel})
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

func TestFacadeTiledSequentialAndSchedule(t *testing.T) {
	nest := quickNest(t)
	h, _ := RectangularTiling(4, 5)
	prog, err := Compile(nest, h, CompileOptions{Kernel: sumKernel})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := prog.RunSequential()
	if err != nil {
		t.Fatal(err)
	}
	tiled, err := prog.RunTiledSequential()
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := seq.MaxAbsDiff(tiled); d != 0 {
		t.Fatal("tiled sequential differs")
	}
	if prog.ScheduleSteps() <= 0 {
		t.Error("ScheduleSteps should be positive")
	}
	est, err := prog.PredictSchedule(FastEthernetPIII())
	if err != nil {
		t.Fatal(err)
	}
	if est.Steps != prog.ScheduleSteps() || est.Total <= 0 {
		t.Errorf("estimate %+v inconsistent", est)
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
	cSrc, err := prog.GenerateC(CodegenOptions{Name: "parsed", KernelStmt: parsed.KernelC})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(cSrc, "R0[0]") {
		t.Error("generated C missing dependence reads")
	}
	if _, err := ParseSource("garbage ["); err == nil {
		t.Error("bad source not rejected")
	}
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
	prog, err := Compile(nest, CandidateTiling(res.Best), CompileOptions{MapDim: res.Best.MapDim, Kernel: sumKernel})
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

// The facade must expose the full fault path: a crash-restart run through
// RunOptions.Net.Faults/Checkpoint reproduces the fault-free result bit for
// bit, and SimulateFaults predicts a degraded makespan for the same plan.
func TestFacadeFaultInjection(t *testing.T) {
	nest := quickNest(t)
	h, err := RectangularTiling(4, 5)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(nest, h, CompileOptions{MapDim: -1, Kernel: sumKernel})
	if err != nil {
		t.Fatal(err)
	}
	clean, err := prog.RunParallel()
	if err != nil {
		t.Fatal(err)
	}
	plan := &FaultPlan{Crash: map[int]int64{prog.Processors() / 2: 1}}
	faulty, err := prog.RunParallelOpts(RunOptions{
		Net:        NetOptions{Faults: plan},
		Checkpoint: &CheckpointOptions{Every: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if d, at := clean.MaxAbsDiff(faulty); d != 0 {
		t.Fatalf("crash-restart run differs by %g at %v", d, at)
	}

	par := FastEthernetPIII()
	base, err := prog.Simulate(par)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := prog.SimulateFaults(par, FaultModel{
		Plan: &FaultPlan{Links: map[Link]LinkFault{{Src: 0, Dst: 1}: {Delay: time.Second}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if pred.Makespan <= base.Makespan {
		t.Errorf("predicted makespan %v not degraded from %v", pred.Makespan, base.Makespan)
	}
	tr, err := prog.SimulateFaultsTraced(par, FaultModel{
		Plan: &FaultPlan{Crash: map[int]int64{0: 1}, RestartDelay: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	var marks int
	for _, e := range tr.Events {
		if e.Kind != "" {
			marks++
		}
	}
	if marks != 2 {
		t.Errorf("traced fault simulation has %d markers, want crash+restart", marks)
	}
}

// TestFacadeTileServer mounts the re-exported service handler and
// drives one spec through analyze and run.
func TestFacadeTileServer(t *testing.T) {
	srv := NewTileServer(TileServerConfig{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	spec := "let M = 6\nlet N = 12\nfor t = 1 .. M\nfor i = 1 .. N\nA[t,i] = 0.5*(A[t-1,i] + A[t,i-1]) + 3\ntile 1/3 0 / 0 1/4\n"
	body, _ := json.Marshal(map[string]string{"source": spec})
	for _, path := range []string{"/v1/analyze", "/v1/run"} {
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, resp.StatusCode, raw)
		}
	}
}
