package exec_test

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"tilespace/internal/exec"
	"tilespace/internal/mpi"
)

// The intra-tile worker matrix: every differential case must produce a
// bit-identical Global and identical traffic stats for every pool size,
// and the chaos/checkpoint machinery must hold under a live pool — a
// crash-restart recovers bit for bit, and an abort tears the pool down
// without leaking a goroutine.

// workerCounts is the pool-size axis: serial baseline, an odd size that
// splits runs unevenly, and whatever parallelism the host actually has.
func workerCounts() []int {
	out := []int{1, 3}
	if g := runtime.GOMAXPROCS(0); g != 1 && g != 3 {
		out = append(out, g)
	}
	return out
}

func TestWorkerMatrixDifferential(t *testing.T) {
	for _, c := range diffCases(t) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			if testing.Short() && slowDiffCases[c.name] {
				t.Skipf("%s is one of the two slowest differential cases; run without -short", c.name)
			}
			for _, overlap := range []bool{false, true} {
				want, wantStats, err := c.p.RunParallelOpts(exec.RunOptions{Workers: 1, Overlap: overlap})
				if err != nil {
					t.Fatalf("workers=1 overlap=%v: %v", overlap, err)
				}
				for _, w := range workerCounts()[1:] {
					got, gotStats, err := c.p.RunParallelOpts(exec.RunOptions{Workers: w, Overlap: overlap})
					if err != nil {
						t.Fatalf("workers=%d overlap=%v: %v", w, overlap, err)
					}
					if diff, at := want.MaxAbsDiff(got, c.p.ScanSpace); diff != 0 {
						t.Fatalf("workers=%d overlap=%v: differs from serial by %g at %v", w, overlap, diff, at)
					}
					if !reflect.DeepEqual(wantStats, gotStats) {
						t.Fatalf("workers=%d overlap=%v: traffic stats drifted\nserial: %+v\npooled: %+v",
							w, overlap, wantStats, gotStats)
					}
				}
			}
		})
	}
}

// TestChaosWorkerPool runs the full injected-fault matrix with a live
// worker pool on every rank: recovery — including a checkpointed
// crash-restart that rebuilds the rank state (and with it a fresh pool)
// mid-chain — must reproduce the fault-free Global and stats bit for bit,
// and wind down every pool goroutine.
func TestChaosWorkerPool(t *testing.T) {
	seed := chaosSeed(t)
	for _, c := range chaosCases(t) {
		c := c
		for _, w := range workerCounts()[1:] {
			want, wantStats, err := c.p.RunParallelOpts(exec.RunOptions{Workers: w, Overlap: true})
			if err != nil {
				t.Fatalf("%s workers=%d fault-free: %v", c.name, w, err)
			}
			for _, f := range chaosFaults(t, seed, c.p.Dist) {
				f := f
				t.Run(fmt.Sprintf("%s/workers=%d/%s", c.name, w, f.name), func(t *testing.T) {
					before := runtime.NumGoroutine()
					got, gotStats, err := c.p.RunParallelOpts(exec.RunOptions{
						Workers:    w,
						Overlap:    true,
						Net:        f.net,
						Checkpoint: f.ck,
					})
					if err != nil {
						t.Fatalf("faulty run: %v", err)
					}
					if diff, at := want.MaxAbsDiff(got, c.p.ScanSpace); diff != 0 {
						t.Fatalf("faulty run differs from fault-free by %g at %v", diff, at)
					}
					if f.name == "transient-send-failure" {
						gotStats = dropRetries(gotStats)
					}
					if !reflect.DeepEqual(wantStats, gotStats) {
						t.Fatalf("traffic stats drifted under faults\nfault-free: %+v\nfaulty:     %+v", wantStats, gotStats)
					}
					checkGoroutines(t, before)
				})
			}
		}
	}
}

// An abort with a live pool — crash, no checkpoint — must tear down the
// per-rank worker goroutines along with the ranks, NICs and watchdog.
func TestAbortWithWorkerPoolLeaksNothing(t *testing.T) {
	cs := chaosCases(t)
	before := runtime.NumGoroutine()
	_, _, err := cs[0].p.RunParallelOpts(exec.RunOptions{
		Workers: 3,
		Overlap: true,
		Net: mpi.Options{
			Watchdog: 2 * time.Second,
			Faults:   &mpi.FaultPlan{Crash: map[int]int64{1: 0}},
		},
	})
	if err == nil {
		t.Fatal("crash without checkpointing returned no error")
	}
	checkGoroutines(t, before)
}
