package exec_test

import (
	"reflect"
	"runtime"
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

// TestNaNOnlyOffSpace: a run's Global is NaN exactly on the box cells off
// the iteration space — the Program fills only those, and the run writes
// every space cell once — for RunSequential and for a parallel run, on a
// Program's first run and on one that reuses the rank states it holds,
// across the differential matrix (SOR's skewed tiling and ADI's width 2
// among them), the drawn DSL sources and the hand nests (a wedge, a box
// whose last corner is off the space).
func TestNaNOnlyOffSpace(t *testing.T) {
	for _, c := range seqCases(t) {
		seq, err := c.p.RunSequential()
		if err != nil {
			t.Fatal(err)
		}
		if at, bad := seq.FirstMisplacedNaN(c.p); bad {
			t.Fatalf("%s: RunSequential's Global misplaces NaN at %v", c.name, at)
		}
		for _, run := range []string{"first", "held states"} {
			g, _, err := c.p.RunParallelOpts(exec.RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if at, bad := g.FirstMisplacedNaN(c.p); bad {
				t.Fatalf("%s, %s run: the Global misplaces NaN at %v", c.name, run, at)
			}
		}
	}
}

// TestHeldRankStates: a Program holds one run's rank states where the
// garbage collector cannot take them, so a run after two collections
// allocates, beyond its Global, less than one rank's LDS (through a
// sync.Pool it allocated every LDS again); and a run after one that aborted,
// whose taken states are dropped, is bit for bit the run before it, Stats
// included.
func TestHeldRankStates(t *testing.T) {
	t.Run("gc", func(t *testing.T) {
		p := jacobiProgram(t, 192) // benchmark's jacobi_coarse: two LDSs of ~2 MB
		lds := int64(-1)
		for r := 0; r < p.Dist.NumProcs(); r++ {
			rp, err := p.Dist.Plan(r)
			if err != nil {
				t.Fatal(err)
			}
			if b := rp.Addr.Size() * int64(p.Width) * 8; lds < 0 || b < lds {
				lds = b
			}
		}
		g, _, err := p.RunParallelOpts(exec.RunOptions{}) // compiles the plans; the states are held from here on
		if err != nil {
			t.Fatal(err)
		}
		global := int64(p.Width) * 8
		for k := range g.Lo {
			global *= g.Hi[k] - g.Lo[k] + 1
		}
		runtime.GC()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, _, err := p.RunParallelOpts(exec.RunOptions{}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if extra := int64(after.TotalAlloc-before.TotalAlloc) - global; extra >= lds {
			t.Fatalf("a run after two GCs allocated %d bytes beyond its Global, not below one rank's LDS (%d bytes)", extra, lds)
		}
	})
	t.Run("after-abort", func(t *testing.T) {
		p := diffCases(t)[0].p
		g0, s0, err := p.RunParallelOpts(exec.RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 2; round++ {
			err := runBounded(t, p, exec.RunOptions{Checkpoint: &exec.CheckpointOptions{
				Every: 1, Resume: &exec.RankSnapshot{Rank: 0, LDS: make([]float64, 1<<16)},
			}})
			if err == nil {
				t.Fatal("the oversized snapshot was accepted")
			}
			g, s, err := p.RunParallelOpts(exec.RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if at, differ := g.FirstBitDiff(g0); differ {
				t.Fatalf("round %d: the run after an aborted one differs at %v", round, at)
			}
			if !reflect.DeepEqual(s, s0) {
				t.Fatalf("round %d: stats after an aborted run differ:\n got %+v\nwant %+v", round, s, s0)
			}
		}
	})
}
