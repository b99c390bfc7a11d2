package distrib_test

import (
	"testing"

	"tilespace/internal/apps"
	"tilespace/internal/distrib"
	"tilespace/internal/ilin"
	"tilespace/internal/tiling"
)

// TestRankTable: over every app × tiling family of the certifier's matrix,
// the dense rank table answers exactly what the chains say. Every Pids[r]
// has rank r; every tile has the rank whose chain holds it; and every pid
// of the box grown by one cell per side that owns no chain — the holes of a
// skewed mesh and everything outside the box — reports no rank, through
// Rank and through RankOfTile alike. The skewed SOR, Jacobi and heat meshes
// leave holes in their pid boxes, so the in-box miss is exercised.
func TestRankTable(t *testing.T) {
	sor, errS := apps.SOR(4, 10)
	jac, errJ := apps.Jacobi(8, 12)
	adi, errA := apps.ADI(8, 10)
	heat, errH := apps.Heat3D(6, 8)
	type appCase struct {
		app     *apps.App
		err     error
		x, y, z int64
	}
	holes := map[string]int{}
	for _, c := range []appCase{{sor, errS, 2, 4, 4}, {sor, errS, 2, 3, 5}, {jac, errJ, 2, 3, 3}, {jac, errJ, 2, 4, 4}, {adi, errA, 2, 3, 3}, {heat, errH, 2, 2, 2}} {
		if c.err != nil {
			t.Fatal(c.err)
		}
		for _, fam := range append([]apps.TilingFamily{c.app.Rect}, c.app.NonRect...) {
			name := c.app.Name + "/" + fam.Name
			ts, err := tiling.Analyze(c.app.Nest, fam.H(c.x, c.y, c.z))
			if err != nil {
				continue // a factor choice this family rejects; the others cover it
			}
			m := c.app.MapDim
			if m < 0 {
				m = distrib.ChooseMappingDim(ts)
			}
			d, err := distrib.New(ts, m)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			holes[name] += checkRankTable(t, name, d)
		}
	}
	if len(holes) < 9 {
		t.Fatalf("only %d app × family cases built", len(holes))
	}
	if holes["sor/nr"] == 0 || holes["jacobi/nr"] == 0 || holes["heat3d/rect"] == 0 {
		t.Errorf("skewed meshes should leave holes in the pid box: %v", holes)
	}
}

// checkRankTable checks d's rank table and returns how many pids inside the
// pid box own no chain.
func checkRankTable(t *testing.T, name string, d *distrib.Distribution) (holes int) {
	t.Helper()
	ts := d.TS
	for r, pid := range d.Pids {
		if got, ok := d.Rank(pid); !ok || got != r {
			t.Fatalf("%s: Rank(Pids[%d] = %v) = %d, %v", name, r, pid, got, ok)
		}
	}
	ts.ScanTiles(func(jS ilin.Vec) bool {
		r, ok := d.RankOfTile(jS)
		if pos := jS[d.M] - d.ChainStart[r]; !ok || pos < 0 || pos >= d.ChainLen[r] || !d.TileAt(r, pos).Equal(jS) {
			t.Fatalf("%s: tile %v: RankOfTile = %d, %v", name, jS, r, ok)
		}
		return true
	})
	// Walk the pid box grown by one cell per side.
	var lo, hi ilin.Vec
	for k := range ts.TileLo {
		if k != d.M {
			lo, hi = append(lo, ts.TileLo[k]-1), append(hi, ts.TileHi[k]+1)
		}
	}
	pid := lo.Clone()
	tile := make(ilin.Vec, ts.T.N)
	for {
		if r, ok := d.Rank(pid); !ok || !d.Pids[r].Equal(pid) {
			inBox := true
			for k := range pid {
				inBox = inBox && pid[k] > lo[k] && pid[k] < hi[k]
			}
			owned := false
			for _, p := range d.Pids {
				owned = owned || p.Equal(pid)
			}
			if ok || owned {
				t.Fatalf("%s: pid %v: Rank = %d, %v; owns a chain: %v", name, pid, r, ok, owned)
			}
			if inBox {
				holes++
			}
			for k, i := 0, 0; k < len(tile); k++ {
				if k == d.M {
					tile[k] = ts.TileLo[k]
				} else {
					tile[k], i = pid[i], i+1
				}
			}
			if r, ok := d.RankOfTile(tile); ok {
				t.Fatalf("%s: tile %v of chainless pid %v: RankOfTile = %d", name, tile, pid, r)
			}
		}
		k := len(pid) - 1
		for ; k >= 0 && pid[k] == hi[k]; k-- {
			pid[k] = lo[k]
		}
		if k < 0 {
			return holes
		}
		pid[k]++
	}
}
