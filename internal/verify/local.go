package verify

import (
	"fmt"
	"slices"

	"tilespace/internal/distrib"
	"tilespace/internal/ilin"
	"tilespace/internal/tiling"
)

// This file certifies the intra-tile parallel schedule (theorem 4): for
// every clamped tile shape, firing distrib.LocalSchedule's wavefronts of
// TTIS rows in order — with any execution order of the rows inside a front,
// each row evaluated in point order — is a linear extension of the shape's
// intra-tile dependence order. Two claims are proved per shape:
//
//   - local-coverage: every row of the shape is scheduled in exactly one
//     front (nothing skipped, nothing fired twice);
//   - local-order: for every row A and transformed dependence d', either d'
//     is zero outside the innermost dimension — then a source lies in A
//     itself, d'_{n−1} > 0 points earlier in it — or, if the shape has a row
//     B at A's outer coordinates minus d', B's front strictly precedes A's.
//     The claim is made per row and dependence, for any point B might hold:
//     stronger than the per-point one and O(rows), not O(points).
//     Strictness also proves front independence: a dependence between rows
//     of one front would violate it.
//
// Together with disjointness of write cells (each point writes only its
// own LDS cell — theorem 3 proves the address program is the injective
// Flat map), this is exactly the fact the executor's worker pool relies
// on for bit-identical results at any pool size.

// CheckLocalSchedule proves the two intra-tile claims for one clamped
// shape: zs is the flat nrows×n list of the rows' first lattice points
// (TilePlan.Z, ScanTileRows order) of tile, ls its derived schedule. Rank of
// a returned Violation is left for the caller; Tile and the counterexample
// Point (the first point of the offending row) are filled.
func CheckLocalSchedule(ts *tiling.TiledSpace, tile ilin.Vec, zs []int64, ls *distrib.LocalSchedule) *Violation {
	n := ts.T.N
	q := ts.DP.Cols
	nrows := len(zs) / n
	first := func(r int) ilin.Vec { return ts.GlobalOf(tile, ilin.Vec(zs[r*n:r*n+n])) }

	// The outer TTIS coordinates j'_0 … j'_{n−2} of every row — they identify
	// it — plus an exact (hash + compare) map back to the row.
	m := n - 1
	outer := make([]int64, nrows*m)
	buckets := make(map[uint64][]int32, nrows)
	for r := 0; r < nrows; r++ {
		z := zs[r*n : r*n+n]
		o := outer[r*m : r*m+m]
		for k := 0; k < m; k++ {
			var s int64
			for l := 0; l <= k; l++ { // H̃' is lower-triangular
				s += ts.T.HT.At(k, l) * z[l]
			}
			o[k] = s
		}
		key := ilin.HashInt64s(ilin.HashSeed(), o)
		buckets[key] = append(buckets[key], int32(r))
	}
	lookup := func(o []int64) int {
		for _, r := range buckets[ilin.HashInt64s(ilin.HashSeed(), o)] {
			if slices.Equal(outer[int(r)*m:int(r)*m+m], o) {
				return int(r)
			}
		}
		return -1
	}

	// Coverage: exactly-once firing.
	frontOf := make([]int32, nrows)
	for r := range frontOf {
		frontOf[r] = -1
	}
	for fi, front := range ls.Fronts {
		for _, r := range front {
			if int(r) < 0 || int(r) >= nrows {
				return &Violation{
					Rule: "local-coverage", Rank: -1, Tile: tile.Clone(),
					Detail: fmt.Sprintf("front %d names row %d outside the %d-row shape", fi, r, nrows),
				}
			}
			if frontOf[r] != -1 {
				return &Violation{
					Rule: "local-coverage", Rank: -1, Tile: tile.Clone(), Point: first(int(r)),
					Detail: fmt.Sprintf("the point's row fires in front %d and again in front %d", frontOf[r], fi),
				}
			}
			frontOf[r] = int32(fi)
		}
	}
	for r, f := range frontOf {
		if f == -1 {
			return &Violation{
				Rule: "local-coverage", Rank: -1, Tile: tile.Clone(), Point: first(r),
				Detail: "the point's row is never fired by the schedule",
			}
		}
	}

	// Order: every intra-tile dependence stays in its row, pointing back, or
	// crosses fronts strictly forward.
	src := make([]int64, m)
	for r := 0; r < nrows; r++ {
		o := outer[r*m : r*m+m]
		for l := 0; l < q; l++ {
			inRow := true
			for k := 0; k < m; k++ {
				src[k] = o[k] - ts.DP.At(k, l)
				inRow = inRow && src[k] == o[k]
			}
			if inRow {
				if ts.DP.At(m, l) <= 0 {
					return &Violation{
						Rule: "local-order", Rank: -1, Tile: tile.Clone(), Point: first(r),
						Detail: fmt.Sprintf("dependence d'_%d stays in the row without pointing back along it — point order does not satisfy it", l+1),
					}
				}
				continue
			}
			s := lookup(src)
			if s < 0 {
				continue // source lives in another tile: the chain order covers it
			}
			if frontOf[s] >= frontOf[r] {
				return &Violation{
					Rule: "local-order", Rank: -1, Tile: tile.Clone(), Point: first(r),
					Detail: fmt.Sprintf("the point's row reads dependence d'_%d from front %d but fires in front %d — not a linear extension",
						l+1, frontOf[s], frontOf[r]),
				}
			}
		}
	}
	return nil
}

// checkLocalSchedules certifies theorem 4 for every tile shape of the
// compiled protocol, deriving each shape's schedule exactly the way the
// executor's local-plan compiler does: NewLocalSchedule of the plan's own
// rows under the protocol's SeqDims.
func checkLocalSchedules(d *distrib.Distribution, plans []*distrib.RankPlan, rep *Report) error {
	seq := d.Protocol().SeqDims
	done := map[*distrib.TilePlan]bool{}
	for r, p := range plans {
		for t := range p.Slots {
			sl := &p.Slots[t]
			if done[sl.Plan] {
				continue
			}
			done[sl.Plan] = true
			ls := distrib.NewLocalSchedule(d.TS, sl.Plan.Z, seq)
			if v := CheckLocalSchedule(d.TS, sl.Tile, sl.Plan.Z, ls); v != nil {
				v.Rank = r
				return v
			}
			rep.Checks += int64(len(sl.Plan.Rows) * (1 + d.TS.DP.Cols))
		}
	}
	return nil
}
