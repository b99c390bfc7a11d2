package verify

import (
	"fmt"

	"tilespace/internal/distrib"
	"tilespace/internal/ilin"
)

// CheckRuns proves a run list is the exact pack decomposition of one
// (tile, direction) communication region: concatenating the runs yields
// precisely the per-point flat cell sequence `want` in region scan order
// (soundness — no value missing, none reordered), and no LDS cell appears
// twice across the runs (non-redundancy — no value sent twice). pts[i],
// when non-nil, is the global iteration behind want[i] and is used as the
// counterexample point. Rank/Tile of a returned Violation are left for
// the caller to fill.
func CheckRuns(pts []ilin.Vec, want []int64, runs []distrib.Run, total int64) *Violation {
	if total != int64(len(want)) {
		return &Violation{
			Rule: "comm-soundness", Rank: -1,
			Detail: fmt.Sprintf("run total %d disagrees with the %d-point communication region", total, len(want)),
		}
	}
	point := func(idx int) ilin.Vec {
		if idx >= 0 && idx < len(pts) && pts[idx] != nil {
			return pts[idx]
		}
		return nil
	}
	idx := 0
	seen := make(map[int64]int, len(want)) // cell → region-point index of first pack
	for ri, run := range runs {
		if run.N <= 0 {
			return &Violation{
				Rule: "comm-soundness", Rank: -1, Point: point(idx),
				Detail: fmt.Sprintf("run %d has non-positive length %d", ri, run.N),
			}
		}
		for o := int64(0); o < run.N; o++ {
			cell := run.Off + o
			if first, dup := seen[cell]; dup {
				return &Violation{
					Rule: "comm-redundancy", Rank: -1, Point: point(first),
					Detail: fmt.Sprintf("LDS cell %d is packed twice", cell),
				}
			}
			if idx >= len(want) {
				return &Violation{
					Rule: "comm-redundancy", Rank: -1, Point: point(len(want) - 1),
					Detail: fmt.Sprintf("runs cover more cells than the region: extra cell %d in run %d", cell, ri),
				}
			}
			seen[cell] = idx
			if want[idx] != cell {
				return &Violation{
					Rule: "comm-soundness", Rank: -1, Point: point(idx),
					Detail: fmt.Sprintf("region point %d packs cell %d, runs pack cell %d", idx, want[idx], cell),
				}
			}
			idx++
		}
	}
	if idx != len(want) {
		return &Violation{
			Rule: "comm-soundness", Rank: -1, Point: point(idx),
			Detail: fmt.Sprintf("region point %d (cell %d) is missing from the run list", idx, want[idx]),
		}
	}
	return nil
}
