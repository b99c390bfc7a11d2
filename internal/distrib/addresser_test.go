package distrib

import (
	"testing"

	"tilespace/internal/ilin"
	"tilespace/internal/loopnest"
	"tilespace/internal/rat"
	"tilespace/internal/tiling"
)

func jacobiDist(t testing.TB) *Distribution {
	t.Helper()
	h := ilin.NewRatMat(3, 3)
	h.Set(0, 0, rat.New(1, 2))
	h.Set(0, 1, rat.New(-1, 4))
	h.Set(1, 1, rat.New(1, 4))
	h.Set(2, 2, rat.New(1, 3))
	deps := ilin.MatFromRows(
		[]int64{1, 1, 1, 1, 1},
		[]int64{1, 2, 0, 1, 1},
		[]int64{1, 1, 1, 2, 0},
	)
	nest, err := loopnest.Box([]string{"t", "i", "j"}, []int64{0, 0, 0}, []int64{7, 7, 7}, deps)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := tiling.Analyze(nest, h)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(ts, 0)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestAddresserMatchesMapFlatten: the allocation-free addresser must agree
// with the reference Map ∘ Flatten on writes and dependence reads.
func TestAddresserMatchesMapFlatten(t *testing.T) {
	d := jacobiDist(t)
	a := d.Addresser(0)
	if a.Size() != d.LDSSize(0) {
		t.Fatalf("Size = %d, want %d", a.Size(), d.LDSSize(0))
	}
	for ti := int64(0); ti < min64(3, d.ChainLen[0]); ti++ {
		ttisPoints(d.TS.T, func(z, jp ilin.Vec) bool {
			want := d.flatten(0, d.Map(jp, ti))
			if got := a.Flat(jp, ti); got != want {
				t.Fatalf("Flat(%v, %d) = %d, want %d", jp, ti, got, want)
			}
			return true
		})
	}
}

func TestAddresserFlatRead(t *testing.T) {
	d := jacobiDist(t)
	a := d.Addresser(0)
	shifted := make(ilin.Vec, 3)
	for l := 0; l < d.TS.DP.Cols; l++ {
		dp := d.TS.DP.Col(l)
		ttisPoints(d.TS.T, func(z, jp ilin.Vec) bool {
			for k := range shifted {
				shifted[k] = jp[k] - dp[k]
			}
			want := d.flatten(0, d.Map(shifted, 1))
			if got := a.FlatRead(jp, dp, 1); got != want {
				t.Fatalf("FlatRead(%v, %v) = %d, want %d", jp, dp, got, want)
			}
			return true
		})
	}
}

// TestAddresserUnpackConsistency: for every dependence crossing processors
// the unpack cell of the owner point must equal the cell every consumer
// read resolves to.
func TestAddresserUnpackConsistency(t *testing.T) {
	d := jacobiDist(t)
	a := d.Addresser(0)
	n := d.TS.T.N
	for _, dS := range d.TS.DS {
		dm := d.dmOf(dS)
		if dm.IsZero() {
			continue
		}
		dmF := insertAt(dm, d.M, 0)
		// Consumer tile at chain slot t reads point j' via d' where the
		// owner point is p' = j' − d' + V·dS.
		for l := 0; l < d.TS.DP.Cols; l++ {
			dp := d.TS.DP.Col(l)
			ttisPoints(d.TS.T, func(z, jp ilin.Vec) bool {
				// Does this read resolve to owner offset dS?
				match := true
				pp := make(ilin.Vec, n)
				for k := 0; k < n; k++ {
					pp[k] = jp[k] - dp[k] + d.TS.T.V[k]*dS[k]
					if rat.FloorDiv(jp[k]-dp[k], d.TS.T.V[k]) != -dS[k] {
						match = false
					}
				}
				if !match {
					return true
				}
				const t0 = int64(2)
				tau := t0 - dS[d.M]
				if got, want := a.flatUnpack(pp, dmF, tau), a.FlatRead(jp, dp, t0); got != want {
					t.Fatalf("unpack cell %d != read cell %d (j'=%v d'=%v dS=%v)", got, want, jp, dp, dS)
				}
				return true
			})
		}
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// flatUnpack is the per-point unpack address DirShift replaces: the flat
// cell where received data is stored, the owner-tile point p' of
// predecessor tile s (whose m-coordinate places it at chain offset
// tau = s_m − chainStart on this processor), shifted by the processor
// direction d^m on the non-mapping dimensions. Every future read of this
// value through any dependence resolves to this cell.
func (a *Addresser) flatUnpack(pp ilin.Vec, dmFull ilin.Vec, tau int64) int64 {
	var idx int64
	for k := 0; k < a.n; k++ {
		var cell int64
		if k == a.m {
			cell = rat.FloorDiv(tau*a.v[k]+pp[k], a.c[k]) + a.off[k]
		} else {
			cell = rat.FloorDiv(pp[k]-a.v[k]*dmFull[k], a.c[k]) + a.off[k]
		}
		idx += cell * a.stride[k]
	}
	return idx
}
