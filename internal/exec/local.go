package exec

import (
	"sort"

	"tilespace/internal/distrib"
	"tilespace/internal/ilin"
)

// This file compiles and executes the intra-tile parallel plan: the
// second tiling level. distrib.NewLocalSchedule splits a tile shape into
// wavefronts of mutually independent points (see distrib/local.go for the
// safety argument); here each wavefront is decomposed into maximal
// stride-1 footprint runs (write cell and every read cell contiguous, the
// same strength reduction pack runs use); a pool splits each front's runs
// across its workers by point count as it dispatches the front. The local
// plan is compiled once on its tilePlan and, like it, shared by every rank
// and run whatever their worker count, so steady state allocates nothing:
// the pool walks precompiled runs, one barrier per wavefront, and the output
// is bit-identical to the serial sweep for any worker count.

// localRun is one compiled stride-1 stretch: n points starting at
// order[start], write cell wo at chain slot 0 (read cells in frontPlan.ro).
type localRun struct {
	start int32
	n     int32
	wo    int64
}

// frontPlan is one compiled wavefront: its points (localPlan.order[lo:hi],
// sorted by write cell), the stride-1 run decomposition, and each run's
// point count — the weights a pool balances its workers' segments by.
type frontPlan struct {
	lo, hi int32
	npts   int
	runs   []localRun
	// ro[ri·q+l] is the first-point read cell of dependence l in run ri.
	ro      []int64
	weights []int64
}

// localPlan is the compiled intra-tile schedule of one tile shape.
type localPlan struct {
	order  []int32
	fronts []frontPlan
}

// localFor returns the tile shape's compiled local plan, compiling it on
// the first parallel execution of the shape by any rank of any run.
func (st *rankState) localFor(pl *tilePlan) *localPlan {
	pl.localOnce.Do(func() { pl.local = st.p.compileLocal(pl) })
	return pl.local
}

// compileLocal derives the shape's wavefronts and extracts footprint runs
// per front.
func (p *Program) compileLocal(pl *tilePlan) *localPlan {
	q := len(p.cp.dps)
	sched := distrib.NewLocalSchedule(p.TS, pl.zs, p.cp.seqDims)
	lp := &localPlan{order: make([]int32, 0, pl.npts)}
	lp.fronts = make([]frontPlan, 0, len(sched.Fronts))
	for _, front := range sched.Fronts {
		f := frontPlan{lo: int32(len(lp.order)), npts: len(front)}
		idxs := append([]int32(nil), front...)
		sort.Slice(idxs, func(a, b int) bool { return pl.writeOff[idxs[a]] < pl.writeOff[idxs[b]] })
		runs := distrib.FootprintRuns(idxs, pl.writeOff, pl.readOff, q)
		f.runs = make([]localRun, len(runs))
		f.ro = make([]int64, len(runs)*q)
		f.weights = make([]int64, len(runs))
		for ri, r := range runs {
			f.runs[ri] = localRun{start: f.lo + r.Start, n: r.N, wo: r.WO}
			copy(f.ro[ri*q:ri*q+q], r.RO)
			f.weights[ri] = int64(r.N)
		}
		lp.order = append(lp.order, idxs...)
		f.hi = int32(len(lp.order))
		lp.fronts = append(lp.fronts, f)
	}
	return lp
}

// execLocalRuns executes runs [rlo, rhi) of front fi through the compiled
// footprint: within a run every address is an increment, so the inner
// loop is a contiguous slice walk. j, reads and ro are caller-owned
// scratch (the rank's own buffers on the inline path, per-worker scratch
// on the pool path), which is what keeps concurrent segments disjoint.
func (st *rankState) execLocalRuns(pl *tilePlan, lp *localPlan, fi, rlo, rhi int, t int64, j ilin.Vec, reads [][]float64, ro []int64) {
	w := int64(st.p.Width)
	n := st.p.TS.T.N
	q := len(st.dps)
	tOff := t * st.chainStep
	la := st.la
	pBase := st.pBase
	f := &lp.fronts[fi]
	for ri := rlo; ri < rhi; ri++ {
		run := f.runs[ri]
		wo := (run.wo + tOff) * w
		base := f.ro[ri*q : ri*q+q]
		for l := 0; l < q; l++ {
			ro[l] = (base[l] + tOff) * w
		}
		for i := int32(0); i < run.n; i++ {
			idx := int(lp.order[run.start+i])
			uz := pl.uz[idx*n : idx*n+n]
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
func (st *rankState) computePhaseParallel(pl *tilePlan, t int64) {
	lp := st.localFor(pl)
	for fi := range lp.fronts {
		f := &lp.fronts[fi]
		if f.npts < st.wpool.n || len(f.runs) == 0 {
			st.execLocalRuns(pl, lp, fi, 0, len(f.runs), t, st.jBuf, st.reads, st.roBuf)
			continue
		}
		st.wpool.dispatch(st, pl, lp, fi, t)
	}
	st.markDirty((pl.maxWrite + t*st.chainStep + 1) * int64(st.p.Width))
	// The injected per-point CPU cost models a kernel the pool would
	// genuinely parallelize, so charge the critical path, not the sum.
	st.chargePointDelay((int64(pl.npts) + int64(st.wpool.n) - 1) / int64(st.wpool.n))
}
