package exec

import (
	"testing"

	"tilespace/internal/ilin"
)

// seedLDS fills both states' LDS arrays with the same distinct values so
// the parallel-vs-serial comparison exercises real addressing: every read
// resolves a different value, and any misrouted write or read shows up as
// a bit difference.
func seedLDS(states ...*rankState) {
	for _, st := range states {
		for i := range st.la {
			st.la[i] = float64(i%101)*0.5 - 12.25
		}
	}
}

// TestComputePhaseParallelMatchesSerial: the pooled wavefront sweep must
// produce a bit-identical LDS to the serial compiled sweep over whole
// chains — interior and boundary shapes, several pool sizes, including
// pools larger than any wavefront (everything inline) and odd sizes that
// split runs unevenly.
func TestComputePhaseParallelMatchesSerial(t *testing.T) {
	p := planProgram(t)
	for _, workers := range []int{2, 3, 8} {
		for r := 0; r < p.Dist.NumProcs(); r++ {
			stS := mustRankState(t, p, r, RunOptions{})
			stP := mustRankState(t, p, r, RunOptions{Workers: workers})
			if stP.workers != workers {
				t.Fatalf("effective workers = %d, want %d", stP.workers, workers)
			}
			stP.wpool = newWorkerPool(stP, workers)
			seedLDS(stS, stP)
			for ti := int64(0); ti < p.Dist.ChainLen[r]; ti++ {
				sl := &stS.Slots[ti] // one compiled chain behind both states
				stS.pBase, stP.pBase = sl.PBase, sl.PBase
				stS.computePhasePlanned(sl.Plan, ti)
				stP.computePhaseParallel(sl.Plan, ti)
			}
			for i, v := range stS.la {
				if stP.la[i] != v {
					t.Fatalf("workers=%d rank %d: LDS cell %d differs: serial %v, parallel %v",
						workers, r, i, v, stP.la[i])
				}
			}
			stP.wpool.close()
		}
	}
}

// TestLocalPlanInvariants: the compiled local plan must fire every point
// of the shape exactly once, decompose each front into runs covering its
// points exactly, keep every run's claimed write offset consistent with
// the tile plan, and weigh each run by its point count (what a pool of any
// size splits the front by).
func TestLocalPlanInvariants(t *testing.T) {
	p := planProgram(t)
	for r := 0; r < p.Dist.NumProcs(); r++ {
		st := mustRankState(t, p, r, RunOptions{Workers: 3})
		for ti := int64(0); ti < p.Dist.ChainLen[r]; ti++ {
			pl := st.Slots[ti].Plan
			lp := p.Dist.LocalPlan(pl)
			if again := p.Dist.LocalPlan(pl); again != lp {
				t.Fatal("local plan recompiled on second lookup")
			}
			if len(lp.Order) != pl.Npts {
				t.Fatalf("order has %d entries, shape has %d points", len(lp.Order), pl.Npts)
			}
			seen := make([]bool, pl.Npts)
			for _, idx := range lp.Order {
				if seen[idx] {
					t.Fatalf("point %d fires twice", idx)
				}
				seen[idx] = true
			}
			for fi := range lp.Fronts {
				f := &lp.Fronts[fi]
				var runPts int32
				for ri, run := range f.Runs {
					if run.Start < f.Lo || run.Start+run.N > f.Hi {
						t.Fatalf("front %d run %d [%d,%d) escapes front [%d,%d)",
							fi, ri, run.Start, run.Start+run.N, f.Lo, f.Hi)
					}
					for i := int32(0); i < run.N; i++ {
						if got := pl.WriteOff[lp.Order[run.Start+i]]; got != run.WO+int64(i) {
							t.Fatalf("front %d run %d point %d: write offset %d, run claims %d",
								fi, ri, i, got, run.WO+int64(i))
						}
					}
					runPts += run.N
				}
				if int(runPts) != f.Npts || int(f.Hi-f.Lo) != f.Npts {
					t.Fatalf("front %d: %d points, runs cover %d, order range %d",
						fi, f.Npts, runPts, f.Hi-f.Lo)
				}
				if len(f.Weights) != len(f.Runs) {
					t.Fatalf("front %d has %d run weights for %d runs", fi, len(f.Weights), len(f.Runs))
				}
				for ri, run := range f.Runs {
					if f.Weights[ri] != int64(run.N) {
						t.Fatalf("front %d run %d: weight %d, %d points", fi, ri, f.Weights[ri], run.N)
					}
				}
			}
		}
	}
}

// TestComputePhaseParallelZeroAlloc: the pooled steady state — pool warm,
// local plan cached — must not allocate, matching the serial sweep's bar.
func TestComputePhaseParallelZeroAlloc(t *testing.T) {
	p := planProgram(t)
	st := mustRankState(t, p, 0, RunOptions{Workers: 3})
	st.wpool = newWorkerPool(st, 3)
	defer st.wpool.close()
	pl := st.Slots[0].Plan
	st.pBase = st.Slots[0].PBase
	st.computePhaseParallel(pl, 0) // compile local plan, warm the pool
	if allocs := testing.AllocsPerRun(20, func() {
		st.computePhaseParallel(pl, 0)
	}); allocs != 0 {
		t.Fatalf("pooled compute sweep allocates %.1f times per tile, want 0", allocs)
	}
}

// TestWorkerPanicPropagates: a kernel panic inside a worker must abort
// the rank like the serial path would, with the pool still closeable and
// no deadlocked barrier.
func TestWorkerPanicPropagates(t *testing.T) {
	p := planProgram(t)
	st := mustRankState(t, p, 0, RunOptions{Workers: 3})
	st.wpool = newWorkerPool(st, 3)
	defer st.wpool.close()
	pl := st.Slots[0].Plan
	st.pBase = st.Slots[0].PBase

	kernel := p.Kernel
	defer func() { p.Kernel = kernel }()
	p.Kernel = func(j ilin.Vec, reads [][]float64, out []float64) { panic("kernel boom") }

	defer func() {
		if r := recover(); r != "kernel boom" {
			t.Fatalf("recovered %v, want the worker's panic value", r)
		}
		// The pool must still dispatch after a captured panic.
		p.Kernel = kernel
		st.computePhaseParallel(pl, 0)
	}()
	st.computePhaseParallel(pl, 0)
}
