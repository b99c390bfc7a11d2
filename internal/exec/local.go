package exec

import (
	"tilespace/internal/distrib"
	"tilespace/internal/ilin"
)

// This file executes the intra-tile parallel plan: the second tiling level.
// distrib.LocalPlan splits a tile shape into wavefronts of mutually
// independent points (see distrib/local.go for the safety argument), each
// decomposed into maximal stride-1 footprint runs; a pool splits each
// front's runs across its workers by point count as it dispatches the front.
// The local plan is compiled once on its TilePlan and, like it, shared by
// every rank and run whatever their worker count, so steady state allocates
// nothing: the pool walks precompiled runs, one barrier per wavefront, and
// the output is bit-identical to the serial sweep for any worker count.

// execLocalRuns executes runs [rlo, rhi) of front fi through the compiled
// footprint: within a run every address is an increment, so the inner
// loop is a contiguous slice walk. j, reads and ro are caller-owned
// scratch (the rank's own buffers on the inline path, per-worker scratch
// on the pool path), which is what keeps concurrent segments disjoint.
func (st *rankState) execLocalRuns(pl *distrib.TilePlan, lp *distrib.LocalPlan, fi, rlo, rhi int, t int64, j ilin.Vec, reads [][]float64, ro []int64) {
	w := int64(st.p.Width)
	n := st.p.TS.T.N
	q := len(st.dps)
	tOff := t * st.ChainStep
	la := st.la
	pBase := st.pBase
	f := &lp.Fronts[fi]
	for ri := rlo; ri < rhi; ri++ {
		run := f.Runs[ri]
		wo := (run.WO + tOff) * w
		base := f.RO[ri*q : ri*q+q]
		for l := 0; l < q; l++ {
			ro[l] = (base[l] + tOff) * w
		}
		for i := int32(0); i < run.N; i++ {
			idx := int(lp.Order[run.Start+i])
			uz := pl.Uz[idx*n : idx*n+n]
			for k := 0; k < n; k++ {
				j[k] = pBase[k] + uz[k]
			}
			for l := 0; l < q; l++ {
				reads[l] = la[ro[l] : ro[l]+w]
				ro[l] += w
			}
			st.p.Kernel(j, reads, la[wo:wo+w])
			wo += w
		}
	}
}

// computePhaseParallel is the pooled counterpart of computePhasePlanned:
// wavefront by wavefront, each front's run segments execute on the worker
// pool with a barrier before the next front starts. Fronts too small to
// feed every worker run inline on the rank goroutine — dispatch overhead
// would exceed the work, and the output is identical either way.
func (st *rankState) computePhaseParallel(pl *distrib.TilePlan, t int64) {
	lp := st.p.Dist.LocalPlan(pl)
	for fi := range lp.Fronts {
		f := &lp.Fronts[fi]
		if f.Npts < st.wpool.n || len(f.Runs) == 0 {
			st.execLocalRuns(pl, lp, fi, 0, len(f.Runs), t, st.jBuf, st.reads, st.roBuf)
			continue
		}
		st.wpool.dispatch(st, pl, lp, fi, t)
	}
	st.markDirty((pl.MaxWrite + t*st.ChainStep + 1) * int64(st.p.Width))
	// The injected per-point CPU cost models a kernel the pool would
	// genuinely parallelize, so charge the critical path, not the sum.
	st.chargePointDelay((int64(pl.Npts) + int64(st.wpool.n) - 1) / int64(st.wpool.n))
}
