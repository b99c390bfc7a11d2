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
// split rows unevenly.
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

// TestLocalPlanInvariants: the compiled local plan must fire every row of
// the shape exactly once — so every point exactly once — keep each front's
// rows in scan order, and weigh each row by its point count (what a pool of
// any size splits the front by).
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
			seen := make([]bool, len(pl.Rows))
			pts := 0
			for fi := range lp.Fronts {
				f := &lp.Fronts[fi]
				if len(f.Rows) == 0 {
					t.Fatalf("front %d is empty", fi)
				}
				if len(f.Weights) != len(f.Rows) {
					t.Fatalf("front %d has %d weights for %d rows", fi, len(f.Weights), len(f.Rows))
				}
				frontPts := 0
				for i, row := range f.Rows {
					if seen[row] {
						t.Fatalf("row %d fires twice", row)
					}
					seen[row] = true
					if i > 0 && f.Rows[i-1] >= row {
						t.Fatalf("front %d: rows %v not in scan order", fi, f.Rows)
					}
					if f.Weights[i] != int64(pl.Rows[row].N) {
						t.Fatalf("front %d row %d: weight %d, %d points", fi, row, f.Weights[i], pl.Rows[row].N)
					}
					frontPts += int(pl.Rows[row].N)
				}
				if frontPts != f.Npts {
					t.Fatalf("front %d: %d points, rows cover %d", fi, f.Npts, frontPts)
				}
				pts += frontPts
			}
			for row, ok := range seen {
				if !ok {
					t.Fatalf("row %d never fires", row)
				}
			}
			if pts != pl.Npts {
				t.Fatalf("fronts cover %d points, shape has %d", pts, pl.Npts)
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
	p.Kernel = PointKernel(func(j ilin.Vec, reads [][]float64, out []float64) { panic("kernel boom") })

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
