package exec_test

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"tilespace/internal/apps"
	"tilespace/internal/exec"
	"tilespace/internal/ilin"
	"tilespace/internal/mpi"
	"tilespace/internal/tiling"
)

// reuseProgram compiles the small SOR workload used by the pooled-world
// tests.
func reuseProgram(t *testing.T) *exec.Program {
	t.Helper()
	app, err := apps.SOR(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := tiling.Analyze(app.Nest, app.NonRect[0].H(2, 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	p, err := exec.NewProgram(ts, app.MapDim, app.Width, app.Kernel, app.Initial)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPooledWorldReuseBitIdentical is the exec side of the World.Reset
// contract: runs on a pooled, repeatedly reused world must produce the
// same Global bit for bit and the same mpi.Stats as a cold run that
// constructs its own world — in both communication modes.
func TestPooledWorldReuseBitIdentical(t *testing.T) {
	p := reuseProgram(t)
	world := mpi.NewWorldOpts(p.Dist.NumProcs(), mpi.Options{})
	for _, overlap := range []bool{false, true} {
		opt := exec.RunOptions{Overlap: overlap, Net: mpi.Options{Watchdog: 5 * time.Second}}
		gCold, sCold, err := p.RunParallelOpts(opt)
		if err != nil {
			t.Fatal(err)
		}
		// Three consecutive runs on the same world: the first resets a
		// fresh world, the later ones a dirty one.
		for round := 0; round < 3; round++ {
			opt.World = world
			g, s, err := p.RunParallelOpts(opt)
			if err != nil {
				t.Fatalf("overlap=%v round %d: %v", overlap, round, err)
			}
			if d, at := gCold.MaxAbsDiff(g, p.ScanSpace); d != 0 {
				t.Fatalf("overlap=%v round %d: pooled-world result differs by %g at %v", overlap, round, d, at)
			}
			if !reflect.DeepEqual(s, sCold) {
				t.Fatalf("overlap=%v round %d: pooled-world stats differ:\n got %+v\nwant %+v", overlap, round, s, sCold)
			}
		}
	}
}

// TestPooledWorldSizeMismatch pins the seam's misuse diagnostic.
func TestPooledWorldSizeMismatch(t *testing.T) {
	p := reuseProgram(t)
	wrong := mpi.NewWorldOpts(p.Dist.NumProcs()+1, mpi.Options{})
	_, _, err := p.RunParallelOpts(exec.RunOptions{World: wrong})
	if err == nil || !strings.Contains(err.Error(), "pooled world") {
		t.Fatalf("expected a pooled-world size error, got %v", err)
	}
}

// TestPooledWorldSurvivesFailedRun proves a world whose previous run
// aborted (kernel panic mid-chain) is reusable: the next run on the same
// world matches a cold run exactly.
func TestPooledWorldSurvivesFailedRun(t *testing.T) {
	p := reuseProgram(t)
	world := mpi.NewWorldOpts(p.Dist.NumProcs(), mpi.Options{})

	boom, err := exec.NewProgram(p.TS, -1, p.Width, exec.Statement(exec.Coef(func(ilin.Vec) float64 {
		panic("injected kernel failure")
	}, "0.0")), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := boom.RunParallelOpts(exec.RunOptions{World: world}); err == nil {
		t.Fatal("expected the injected kernel panic to fail the run")
	}

	gCold, sCold, err := p.RunParallelOpts(exec.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g, s, err := p.RunParallelOpts(exec.RunOptions{World: world})
	if err != nil {
		t.Fatalf("reuse after aborted run: %v", err)
	}
	if d, at := gCold.MaxAbsDiff(g, p.ScanSpace); d != 0 {
		t.Fatalf("post-abort pooled result differs by %g at %v", d, at)
	}
	if !reflect.DeepEqual(s, sCold) {
		t.Fatalf("post-abort pooled stats differ:\n got %+v\nwant %+v", s, sCold)
	}
}
