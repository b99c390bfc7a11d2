package distrib

import (
	"testing"

	"tilespace/internal/ilin"
)

// TestChainStepExact: Flat/FlatRead must be affine in the chain
// slot with slope ChainStep, for every TTIS point — the identity compiled
// tile plans rely on.
func TestChainStepExact(t *testing.T) {
	d := jacobiDist(t)
	a := d.Addresser(0)
	step := a.ChainStep()
	if step <= 0 {
		t.Fatalf("ChainStep = %d, want positive", step)
	}
	dp := d.TS.DP.Col(0)
	d.TS.T.ScanTTIS(func(z, jp ilin.Vec) bool {
		base := a.Flat(jp, 0)
		baseR := a.FlatRead(jp, dp, 0)
		for ti := int64(1); ti < 4; ti++ {
			if got := a.Flat(jp, ti); got != base+ti*step {
				t.Fatalf("Flat(%v, %d) = %d, want %d + %d·%d", jp, ti, got, base, ti, step)
			}
			if got := a.FlatRead(jp, dp, ti); got != baseR+ti*step {
				t.Fatalf("FlatRead(%v, %v, %d) = %d, want %d + %d·%d", jp, dp, ti, got, baseR, ti, step)
			}
		}
		return true
	})
}

// TestDirShiftExact: the per-point unpack address must equal Flat shifted
// by the constant DirShift for every processor direction and every chain slot.
func TestDirShiftExact(t *testing.T) {
	d := jacobiDist(t)
	a := d.Addresser(0)
	for _, dm := range d.DM {
		dmF := make(ilin.Vec, 0, d.TS.T.N)
		dmF = append(dmF, dm[:d.M]...)
		dmF = append(dmF, 0)
		dmF = append(dmF, dm[d.M:]...)
		shift := a.DirShift(dmF)
		d.TS.T.ScanTTIS(func(z, jp ilin.Vec) bool {
			for tau := int64(0); tau < 3; tau++ {
				want := a.flatUnpack(jp, dmF, tau)
				if got := a.Flat(jp, tau) + shift; got != want {
					t.Fatalf("Flat(%v,%d)+DirShift(%v) = %d, want flatUnpack = %d", jp, tau, dmF, got, want)
				}
			}
			return true
		})
	}
}

// TestCommRunsCoverRegion: for every tile (interior and boundary) and
// every direction, the run list must enumerate exactly the CommRegion's
// flat addresses in order, with maximal contiguous runs, and the fused
// count must match CommRegion's.
func TestCommRunsCoverRegion(t *testing.T) {
	for r := 0; r < 2; r++ {
		d := jacobiDist(t)
		a := d.Addresser(r)
		d.TS.ScanTiles(func(s ilin.Vec) bool {
			tile := s.Clone()
			for _, dm := range d.DM {
				runs, total := d.CommRuns(tile, dm, a)
				var want []int64
				n := d.CommRegion(tile, dm, func(z, jp ilin.Vec) bool {
					want = append(want, a.Flat(jp, 0))
					return true
				})
				if total != n {
					t.Fatalf("tile %v dm %v: fused count %d, CommRegion %d", tile, dm, total, n)
				}
				var got []int64
				for i, run := range runs {
					if run.N <= 0 {
						t.Fatalf("tile %v dm %v: empty run", tile, dm)
					}
					if i > 0 && runs[i-1].Off+runs[i-1].N == run.Off {
						t.Fatalf("tile %v dm %v: runs %d and %d are adjacent (not maximal)", tile, dm, i-1, i)
					}
					for j := int64(0); j < run.N; j++ {
						got = append(got, run.Off+j)
					}
				}
				if len(got) != len(want) {
					t.Fatalf("tile %v dm %v: runs cover %d cells, region has %d", tile, dm, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("tile %v dm %v: cell %d: run address %d, region address %d", tile, dm, i, got[i], want[i])
					}
				}
			}
			return true
		})
	}
}

// TestCommRunsBoundaryTileSmaller: boundary tiles must produce clamped
// (strictly smaller) regions than the interior full-tile count for at
// least one direction, exercising the boundary branch of run extraction.
func TestCommRunsBoundaryTileSmaller(t *testing.T) {
	d := jacobiDist(t)
	a := d.Addresser(0)
	for _, dm := range d.DM {
		full := d.FullTileCommCount(dm)
		sawSmaller := false
		d.TS.ScanTiles(func(s ilin.Vec) bool {
			_, total := d.CommRuns(s, dm, a)
			if total < full {
				sawSmaller = true
				return false
			}
			return true
		})
		if !sawSmaller {
			t.Fatalf("dm %v: no boundary tile with a clamped region (full = %d)", dm, full)
		}
	}
}
