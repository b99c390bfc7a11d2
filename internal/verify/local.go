package verify

import (
	"fmt"

	"tilespace/internal/distrib"
	"tilespace/internal/ilin"
	"tilespace/internal/tiling"
)

// This file certifies the intra-tile parallel schedule (theorem 4): for
// every clamped tile shape, firing distrib.LocalSchedule's wavefronts in
// order — with any execution order inside a front — is a linear extension
// of the shape's intra-tile dependence order. Two claims are proved per
// shape:
//
//   - local-coverage: every lattice point of the shape is scheduled in
//     exactly one front (nothing skipped, nothing fired twice);
//   - local-order: for every point A and transformed dependence d', if
//     the source B = j'(A) − d' is a point of the same shape, B's front
//     strictly precedes A's. Strictness also proves front independence:
//     a dependence between same-front points would violate it.
//
// Together with disjointness of write cells (each point writes only its
// own LDS cell — theorem 3 proves the address program is the injective
// Flat map), this is exactly the fact the executor's worker pool relies
// on for bit-identical results at any pool size.

// CheckLocalSchedule proves the two intra-tile claims for one clamped
// shape: zs is the flat npts×n lattice point list (ScanTilePoints order)
// of tile, ls its derived schedule. Rank of a returned Violation is left
// for the caller; Tile and the counterexample Point are filled.
func CheckLocalSchedule(ts *tiling.TiledSpace, tile ilin.Vec, zs []int64, ls *distrib.LocalSchedule) *Violation {
	n := ts.T.N
	q := ts.DP.Cols
	npts := len(zs) / n

	// j' of every point, plus an exact (hash + compare) j' → index map.
	jps := make([]int64, npts*n)
	buckets := make(map[uint64][]int32, npts)
	for i := 0; i < npts; i++ {
		z := zs[i*n : i*n+n]
		jp := jps[i*n : i*n+n]
		for k := 0; k < n; k++ {
			var s int64
			for l := 0; l <= k; l++ { // H̃' is lower-triangular
				s += ts.T.HT.At(k, l) * z[l]
			}
			jp[k] = s
		}
		key := ilin.HashInt64s(ilin.HashSeed(), jp)
		buckets[key] = append(buckets[key], int32(i))
	}
	lookup := func(jp []int64) int {
		for _, i := range buckets[ilin.HashInt64s(ilin.HashSeed(), jp)] {
			cand := jps[int(i)*n : int(i)*n+n]
			match := true
			for k := 0; k < n; k++ {
				if cand[k] != jp[k] {
					match = false
					break
				}
			}
			if match {
				return int(i)
			}
		}
		return -1
	}

	// Coverage: exactly-once firing.
	frontOf := make([]int32, npts)
	for i := range frontOf {
		frontOf[i] = -1
	}
	for fi, front := range ls.Fronts {
		for _, idx := range front {
			if int(idx) < 0 || int(idx) >= npts {
				return &Violation{
					Rule: "local-coverage", Rank: -1, Tile: tile.Clone(),
					Detail: fmt.Sprintf("front %d names point %d outside the %d-point shape", fi, idx, npts),
				}
			}
			if frontOf[idx] != -1 {
				return &Violation{
					Rule: "local-coverage", Rank: -1, Tile: tile.Clone(),
					Point:  ts.GlobalOf(tile, ilin.Vec(zs[int(idx)*n:int(idx)*n+n])),
					Detail: fmt.Sprintf("point fires in front %d and again in front %d", frontOf[idx], fi),
				}
			}
			frontOf[idx] = int32(fi)
		}
	}
	for i, f := range frontOf {
		if f == -1 {
			return &Violation{
				Rule: "local-coverage", Rank: -1, Tile: tile.Clone(),
				Point:  ts.GlobalOf(tile, ilin.Vec(zs[i*n:i*n+n])),
				Detail: "point is never fired by the schedule",
			}
		}
	}

	// Order: every intra-tile dependence crosses fronts strictly forward.
	src := make([]int64, n)
	for i := 0; i < npts; i++ {
		jp := jps[i*n : i*n+n]
		for l := 0; l < q; l++ {
			for k := 0; k < n; k++ {
				src[k] = jp[k] - ts.DP.At(k, l)
			}
			s := lookup(src)
			if s < 0 {
				continue // source lives in another tile: the chain order covers it
			}
			if frontOf[s] >= frontOf[i] {
				return &Violation{
					Rule: "local-order", Rank: -1, Tile: tile.Clone(),
					Point: ts.GlobalOf(tile, ilin.Vec(zs[i*n:i*n+n])),
					Detail: fmt.Sprintf("reads dependence d'_%d from front %d but fires in front %d — not a linear extension",
						l+1, frontOf[s], frontOf[i]),
				}
			}
		}
	}
	return nil
}

// checkLocalSchedules certifies theorem 4 for every tile shape of the
// compiled protocol, deriving each shape's schedule exactly the way the
// executor's local-plan compiler does: NewLocalSchedule of the plan's own
// z-list under the protocol's SeqDims.
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
			ls := distrib.NewLocalSchedule(d.TS, sl.Plan.Zs, seq)
			if v := CheckLocalSchedule(d.TS, sl.Tile, sl.Plan.Zs, ls); v != nil {
				v.Rank = r
				return v
			}
			rep.Checks += int64(sl.Plan.Npts * (1 + d.TS.DP.Cols))
		}
	}
	return nil
}
