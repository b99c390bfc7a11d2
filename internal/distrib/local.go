package distrib

import (
	"sort"

	"tilespace/internal/ilin"
	"tilespace/internal/tiling"
)

// This file derives the intra-tile parallel schedule: the second tiling
// level that splits one tile's clamped TTIS lattice into wavefronts of
// mutually independent rows. Ranks already walk tiles in the paper's chain
// order; inside a tile the executor walks TTIS rows in scan order. The
// dependence cone says it does not have to: a legal tiling makes every
// transformed dependence d' = H'·d componentwise non-negative and non-zero,
// so a small set S of "sequential" dimensions covers every dependence (each
// d' has a positive component in S — in the lowest dimension where it is
// non-zero, the way SeqDims picks them), and with S' = S minus the innermost
// dimension the level sets of
//
//	σ(row) = Σ_{k∈S'} j'_k        (constant along a row: j'_k for k < n−1
//	                               does not depend on z_{n−1})
//
// are safe wavefronts of rows. If point A reads point B = A − d' of the same
// tile, either d' is zero outside the innermost dimension — then B lies
// earlier in A's own row, and a row is always evaluated in point order — or
// its lowest non-zero dimension is in S', so σ(row B) < σ(row A) and B's row
// fires in a strictly earlier wavefront. Rows sharing a σ value are mutually
// independent, and each point writes only its own LDS cell, so any execution
// order of the rows inside a wavefront — including concurrent workers —
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
// row indices (into the shape's row table, ScanTileRows order) are grouped
// into fronts of mutually independent rows, fronts ordered by strictly
// ascending σ. The schedule depends only on the shape's rows and the tiling
// (not on the tile position), so one schedule serves every same-shape tile —
// it is cached alongside the tile plans.
type LocalSchedule struct {
	// Seq is the set S' the wavefront key sums over: the sequential
	// dimensions outside the innermost one.
	Seq []int
	// Sigma[r] is σ of row r.
	Sigma []int64
	// Fronts lists row indices per wavefront, σ strictly ascending across
	// fronts; within a front rows keep scan order.
	Fronts [][]int32
}

// NewLocalSchedule derives the wavefront schedule of a clamped shape under
// the tiling of ts: zs is the flat nrows×n list of the rows' first lattice
// points (TilePlan.Z) and seq the sequential dimension set (SeqDims of
// ts.DP), of which the innermost dimension is dropped.
func NewLocalSchedule(ts *tiling.TiledSpace, zs []int64, seq []int) *LocalSchedule {
	n := ts.T.N
	nrows := len(zs) / n
	ls := &LocalSchedule{Sigma: make([]int64, nrows)}
	for _, k := range seq {
		if k != n-1 {
			ls.Seq = append(ls.Seq, k)
		}
	}
	// j'_k = Σ_{l≤k} H̃'_{kl}·z_l (H̃' is lower-triangular); σ only needs
	// the rows in S'.
	for r := 0; r < nrows; r++ {
		z := zs[r*n : r*n+n]
		var sig int64
		for _, k := range ls.Seq {
			for l := 0; l <= k; l++ {
				sig += ts.T.HT.At(k, l) * z[l]
			}
		}
		ls.Sigma[r] = sig
	}
	idx := make([]int32, nrows)
	for i := range idx {
		idx[i] = int32(i)
	}
	sort.SliceStable(idx, func(a, b int) bool { return ls.Sigma[idx[a]] < ls.Sigma[idx[b]] })
	for s := 0; s < nrows; {
		e := s
		for e < nrows && ls.Sigma[idx[e]] == ls.Sigma[idx[s]] {
			e++
		}
		ls.Fronts = append(ls.Fronts, idx[s:e:e])
		s = e
	}
	return ls
}

// FrontPlan is one compiled wavefront: its rows (indices into
// TilePlan.Rows, in scan order), each row's point count — the weights a
// worker pool balances its segments by — and their sum.
type FrontPlan struct {
	Rows    []int32
	Weights []int64
	Npts    int
}

// LocalPlan is the compiled intra-tile schedule of one tile shape: the
// wavefronts of its LocalSchedule with the weights a pool splits them by.
type LocalPlan struct {
	Fronts []FrontPlan
}

// LocalPlan returns the tile shape's compiled local plan, compiling it on
// first use; like the TilePlan it hangs off, it is shared read-only by every
// rank and run whatever their worker count.
func (d *Distribution) LocalPlan(pl *TilePlan) *LocalPlan {
	pl.localOnce.Do(func() { pl.local = d.compileLocal(pl) })
	return pl.local
}

// compileLocal derives the shape's wavefronts and weighs their rows.
func (d *Distribution) compileLocal(pl *TilePlan) *LocalPlan {
	sched := NewLocalSchedule(d.TS, pl.Z, d.Protocol().SeqDims)
	lp := &LocalPlan{Fronts: make([]FrontPlan, len(sched.Fronts))}
	for fi, front := range sched.Fronts {
		f := &lp.Fronts[fi]
		f.Rows = front
		f.Weights = make([]int64, len(front))
		for i, r := range front {
			f.Weights[i] = int64(pl.Rows[r].N)
			f.Npts += int(pl.Rows[r].N)
		}
	}
	return lp
}
