package exec

import "tilespace/internal/distrib"

// This file executes the intra-tile parallel plan: the second tiling level.
// distrib.LocalPlan splits a tile shape into wavefronts of mutually
// independent TTIS rows (see distrib/local.go for the safety argument); a
// pool splits each front's rows across its workers by point count as it
// dispatches the front, and every worker evaluates its rows with the same row
// evaluator the serial sweep uses (rowEval.rows), on scratch of its own. The
// local plan is compiled once on its TilePlan and, like it, shared by every
// rank and run whatever their worker count, so steady state allocates
// nothing: one barrier per wavefront, and the output is bit-identical to the
// serial sweep for any worker count.

// computePhaseParallel is the pooled counterpart of computePhasePlanned:
// wavefront by wavefront, each front's row segments execute on the worker
// pool with a barrier before the next front starts. Fronts too small to
// feed every worker run inline on the rank goroutine — dispatch overhead
// would exceed the work, and the output is identical either way.
func (st *rankState) computePhaseParallel(pl *distrib.TilePlan, t int64) {
	lp := st.p.Dist.LocalPlan(pl)
	for fi := range lp.Fronts {
		f := &lp.Fronts[fi]
		if f.Npts < st.wpool.n {
			st.ev.rows(st, pl, f.Rows, 0, len(f.Rows), t)
			continue
		}
		st.wpool.dispatch(st, pl, f, t)
	}
	st.markDirty((pl.MaxWrite + t*st.ChainStep + 1) * int64(st.p.Width))
	// The injected per-point CPU cost models a kernel the pool would
	// genuinely parallelize, so charge the critical path, not the sum.
	st.chargePointDelay((int64(pl.Npts) + int64(st.wpool.n) - 1) / int64(st.wpool.n))
}
