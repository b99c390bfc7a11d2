package distrib

import (
	"sort"

	"tilespace/internal/ilin"
	"tilespace/internal/tiling"
)

// This file derives the intra-tile parallel schedule: the second tiling
// level that splits one tile's clamped TTIS lattice into wavefronts of
// mutually independent points. Ranks already walk tiles in the paper's
// chain order; inside a tile the executor was point-serial. The dependence
// cone says it does not have to be: a legal tiling makes every transformed
// dependence d' = H'·d componentwise non-negative and non-zero, so a small
// set S of "sequential" dimensions covers every dependence (each d' has a
// positive component in S), and the level sets of
//
//	σ(j') = Σ_{k∈S} j'_k
//
// are safe wavefronts: if point A reads point B = A − d' of the same tile,
// then σ(B) = σ(A) − Σ_{k∈S} d'_k < σ(A), so B lies in a strictly earlier
// wavefront. Points sharing a σ value are mutually independent (their
// difference would be a dependence with zero S-components, which the cover
// rules out), and each point writes only its own LDS cell, so any
// execution order inside a wavefront — including concurrent workers —
// yields bit-identical results. internal/verify re-proves this per shape
// (the firing order is a linear extension of the intra-tile dependence
// order); internal/exec executes it with a per-rank worker pool.

// SeqDims returns the sequential dimension set S for the transformed
// dependence matrix dp (D' = H'·D, dimensions × dependences): a greedy
// cover choosing the lowest dimensions first, so that every dependence
// column has a positive component in some chosen dimension. Dimensions
// outside S carry no uncovered dependence and may be walked in parallel
// within a wavefront. An empty dependence matrix yields an empty S (every
// point independent).
func SeqDims(dp *ilin.Mat) []int {
	covered := make([]bool, dp.Cols)
	left := dp.Cols
	var seq []int
	for k := 0; k < dp.Rows && left > 0; k++ {
		use := false
		for l := 0; l < dp.Cols; l++ {
			if !covered[l] && dp.At(k, l) != 0 {
				use = true
				break
			}
		}
		if !use {
			continue
		}
		seq = append(seq, k)
		for l := 0; l < dp.Cols; l++ {
			if !covered[l] && dp.At(k, l) != 0 {
				covered[l] = true
				left--
			}
		}
	}
	return seq
}

// LocalSchedule is the wavefront decomposition of one clamped tile shape:
// point indices (into the shape's ScanTilePoints-order lattice list) are
// grouped into fronts of mutually independent points, fronts ordered by
// strictly ascending σ. The schedule depends only on the shape's z-list
// and the tiling (not on the tile position), so one schedule serves every
// same-shape tile — it is cached alongside the tile plans.
type LocalSchedule struct {
	// Seq is the sequential dimension set S the wavefront key sums over.
	Seq []int
	// Sigma[i] is σ of point i in shape order.
	Sigma []int64
	// Fronts lists point indices per wavefront, σ strictly ascending
	// across fronts; within a front indices keep shape (z-lex) order.
	Fronts [][]int32
}

// NewLocalSchedule derives the wavefront schedule of the clamped shape zs
// (the flat npts×n lattice point list of ScanTilePoints) under the tiling
// of ts, with seq the sequential dimension set (SeqDims of ts.DP).
func NewLocalSchedule(ts *tiling.TiledSpace, zs []int64, seq []int) *LocalSchedule {
	n := ts.T.N
	npts := len(zs) / n
	ls := &LocalSchedule{Seq: seq, Sigma: make([]int64, npts)}
	// j'_k = Σ_{l≤k} H̃'_{kl}·z_l (H̃' is lower-triangular); σ only needs
	// the rows in S.
	for i := 0; i < npts; i++ {
		z := zs[i*n : i*n+n]
		var sig int64
		for _, k := range seq {
			for l := 0; l <= k; l++ {
				sig += ts.T.HT.At(k, l) * z[l]
			}
		}
		ls.Sigma[i] = sig
	}
	idx := make([]int32, npts)
	for i := range idx {
		idx[i] = int32(i)
	}
	sort.SliceStable(idx, func(a, b int) bool { return ls.Sigma[idx[a]] < ls.Sigma[idx[b]] })
	for s := 0; s < npts; {
		e := s
		for e < npts && ls.Sigma[idx[e]] == ls.Sigma[idx[s]] {
			e++
		}
		ls.Fronts = append(ls.Fronts, idx[s:e:e])
		s = e
	}
	return ls
}

// FootprintRun is one maximal stride-1 stretch of a wavefront's compute
// footprint: N points, in the given order, whose write cell and every
// read cell all advance by exactly one LDS cell per point. Offsets are
// chain-slot-0 cell addresses (add t·Addresser.ChainStep to place them),
// exactly like pack runs. Within a run the executor's inner loop is a
// contiguous slice walk — no address table lookups.
type FootprintRun struct {
	// Start indexes the first point of the run in the order slice passed
	// to FootprintRuns.
	Start int32
	// N is the run length in points.
	N int32
	// WO is the write cell of the first point.
	WO int64
	// RO[l] is read cell of dependence l for the first point.
	RO []int64
}

// FootprintRuns decomposes one wavefront's points — order holds point
// indices, already sorted by write offset — into maximal stride-1 runs
// over the full compute footprint: writeOff[p] and all q entries of
// readOff[p·q : p·q+q] must advance by +1 from one point to the next,
// the same empirical contiguity test CommRuns applies to pack regions.
func FootprintRuns(order []int32, writeOff, readOff []int64, q int) []FootprintRun {
	var runs []FootprintRun
	for s := 0; s < len(order); {
		p := int(order[s])
		run := FootprintRun{Start: int32(s), WO: writeOff[p], RO: make([]int64, q)}
		copy(run.RO, readOff[p*q:p*q+q])
		e := s + 1
		for ; e < len(order); e++ {
			a, b := int(order[e-1]), int(order[e])
			if writeOff[b] != writeOff[a]+1 {
				break
			}
			ok := true
			for l := 0; l < q; l++ {
				if readOff[b*q+l] != readOff[a*q+l]+1 {
					ok = false
					break
				}
			}
			if !ok {
				break
			}
		}
		run.N = int32(e - s)
		runs = append(runs, run)
		s = e
	}
	return runs
}

// LocalRun is one compiled stride-1 stretch of a wavefront: N points starting
// at LocalPlan.Order[Start], write cell WO at chain slot 0 (read cells in
// FrontPlan.RO).
type LocalRun struct {
	Start int32
	N     int32
	WO    int64
}

// FrontPlan is one compiled wavefront: its points (LocalPlan.Order[Lo:Hi],
// sorted by write cell), the stride-1 run decomposition, and each run's
// point count — the weights a worker pool balances its segments by.
type FrontPlan struct {
	Lo, Hi int32
	Npts   int
	Runs   []LocalRun
	// RO[ri·q+l] is the first-point read cell of dependence l in run ri.
	RO      []int64
	Weights []int64
}

// LocalPlan is the compiled intra-tile schedule of one tile shape: the
// wavefronts of its LocalSchedule, each decomposed into maximal stride-1
// footprint runs (the same strength reduction pack runs use).
type LocalPlan struct {
	Order  []int32
	Fronts []FrontPlan
}

// LocalPlan returns the tile shape's compiled local plan, compiling it on
// first use; like the TilePlan it hangs off, it is shared read-only by every
// rank and run whatever their worker count.
func (d *Distribution) LocalPlan(pl *TilePlan) *LocalPlan {
	pl.localOnce.Do(func() { pl.local = d.compileLocal(pl) })
	return pl.local
}

// compileLocal derives the shape's wavefronts and extracts footprint runs
// per front.
func (d *Distribution) compileLocal(pl *TilePlan) *LocalPlan {
	pr := d.Protocol()
	q := len(pr.DPs)
	sched := NewLocalSchedule(d.TS, pl.Zs, pr.SeqDims)
	lp := &LocalPlan{Order: make([]int32, 0, pl.Npts)}
	lp.Fronts = make([]FrontPlan, 0, len(sched.Fronts))
	for _, front := range sched.Fronts {
		f := FrontPlan{Lo: int32(len(lp.Order)), Npts: len(front)}
		idxs := append([]int32(nil), front...)
		sort.Slice(idxs, func(a, b int) bool { return pl.WriteOff[idxs[a]] < pl.WriteOff[idxs[b]] })
		runs := FootprintRuns(idxs, pl.WriteOff, pl.ReadOff, q)
		f.Runs = make([]LocalRun, len(runs))
		f.RO = make([]int64, len(runs)*q)
		f.Weights = make([]int64, len(runs))
		for ri, r := range runs {
			f.Runs[ri] = LocalRun{Start: f.Lo + r.Start, N: r.N, WO: r.WO}
			copy(f.RO[ri*q:ri*q+q], r.RO)
			f.Weights[ri] = int64(r.N)
		}
		lp.Order = append(lp.Order, idxs...)
		f.Hi = int32(len(lp.Order))
		lp.Fronts = append(lp.Fronts, f)
	}
	return lp
}
