package distrib

import (
	"fmt"
	"testing"

	"tilespace/internal/ilin"
	"tilespace/internal/loopnest"
	"tilespace/internal/rat"
	"tilespace/internal/tiling"
)

func rect2D(t *testing.T, hi1, hi2, s1, s2 int64) *tiling.TiledSpace {
	t.Helper()
	nest, err := loopnest.Box([]string{"i", "j"}, []int64{0, 0}, []int64{hi1, hi2},
		ilin.MatFromRows([]int64{1, 0}, []int64{0, 1}))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := tiling.Rectangular(s1, s2)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := tiling.Analyze(nest, tr.H)
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

func TestChooseMappingDim(t *testing.T) {
	ts := rect2D(t, 19, 5, 2, 2) // 10 tiles × 3 tiles
	if got := ChooseMappingDim(ts); got != 0 {
		t.Errorf("mapping dim = %d, want 0", got)
	}
	ts2 := rect2D(t, 5, 19, 2, 2)
	if got := ChooseMappingDim(ts2); got != 1 {
		t.Errorf("mapping dim = %d, want 1", got)
	}
}

func TestNewBasics(t *testing.T) {
	ts := rect2D(t, 19, 5, 2, 2)
	d, err := New(ts, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumProcs() != 3 {
		t.Errorf("NumProcs = %d, want 3", d.NumProcs())
	}
	for r := 0; r < 3; r++ {
		if d.ChainLen[r] != 10 || d.ChainStart[r] != 0 {
			t.Errorf("chain %d = start %d len %d", r, d.ChainStart[r], d.ChainLen[r])
		}
	}
	// D^S = {(1,0),(0,1)}; projecting out m=0: (1,0)→(0) drops, (0,1)→(1).
	if len(d.DM) != 1 || !d.DM[0].Equal(ilin.NewVec(1)) {
		t.Errorf("DM = %v", d.DM)
	}
	// Off: k=0 is m → v_0/c_0 = 2; k=1: ceil(maxd'_1/c_1) = 1.
	if !d.Off.Equal(ilin.NewVec(2, 1)) {
		t.Errorf("Off = %v", d.Off)
	}
	if !d.LDSShape(0).Equal(ilin.NewVec(2+10*2, 1+2)) {
		t.Errorf("LDSShape = %v", d.LDSShape(0))
	}
	if d.LDSSize(0) != 22*3 {
		t.Errorf("LDSSize = %d", d.LDSSize(0))
	}
	if d.String() == "" {
		t.Error("empty String")
	}
}

func TestNewErrors(t *testing.T) {
	ts := rect2D(t, 5, 5, 2, 2)
	if _, err := New(ts, -1); err == nil {
		t.Error("negative m not rejected")
	}
	if _, err := New(ts, 2); err == nil {
		t.Error("out-of-range m not rejected")
	}
}

func TestRankPidRoundTrip(t *testing.T) {
	ts := rect2D(t, 9, 9, 2, 2) // 5×5 tiles
	d, err := New(ts, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumProcs() != 5 {
		t.Fatalf("NumProcs = %d", d.NumProcs())
	}
	ts.ScanTiles(func(jS ilin.Vec) bool {
		r, ok := d.RankOfTile(jS)
		if !ok {
			t.Fatalf("tile %v unassigned", jS)
		}
		if got := d.TileAt(r, jS[d.M]-d.ChainStart[r]); !got.Equal(jS) {
			t.Fatalf("TileAt(RankOfTile) = %v, want %v", got, jS)
		}
		return true
	})
	if _, ok := d.Rank(ilin.NewVec(99)); ok {
		t.Error("unknown pid should have no rank")
	}
}

func TestMinSucc(t *testing.T) {
	ts := rect2D(t, 9, 9, 2, 2)
	d, err := New(ts, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.DM) != 1 || !d.DM[0].Equal(ilin.NewVec(1)) {
		t.Fatalf("DM = %v, want the one direction (1)", d.DM)
	}
	// Successors of tile (2,2) in direction (1): only d^S = (0,1) projects
	// to (1), so minsucc = (2,3).
	ds, ok := d.MinSucc(ilin.NewVec(2, 2), 0)
	if !ok || !ilin.NewVec(2, 2).Add(ts.DS[ds]).Equal(ilin.NewVec(2, 3)) {
		t.Errorf("MinSucc = d^S #%d, %v", ds, ok)
	}
	// Boundary tile (2,4) has no successor in direction (1).
	if _, ok := d.MinSucc(ilin.NewVec(2, 4), 0); ok || d.HasSuccessor(ilin.NewVec(2, 4), 0) {
		t.Error("boundary tile should have no successor")
	}
}

// TestMapDense: over a chain, Map must be a bijection from (t, lattice j')
// onto the computation region of the LDS.
func TestMapDense(t *testing.T) {
	ts := rect2D(t, 9, 5, 2, 3)
	d, err := New(ts, 0)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int64]bool{}
	var points int64
	for ti := int64(0); ti < d.ChainLen[0]; ti++ {
		ttisPoints(ts.T, func(z, jp ilin.Vec) bool {
			cell := d.Map(jp, ti)
			idx := d.flatten(0, cell)
			if seen[idx] {
				t.Fatalf("cell %v hit twice", cell)
			}
			seen[idx] = true
			points++
			return true
		})
	}
	if int64(len(seen)) != points || points != d.ChainLen[0]*ts.T.TileSize {
		t.Errorf("mapped %d cells for %d points", len(seen), points)
	}
}

// TestMapInverseRoundTrip covers the stride-2 Jacobi lattice.
func TestMapInverseRoundTrip(t *testing.T) {
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
	for ti := int64(0); ti < 3; ti++ {
		ttisPoints(ts.T, func(z, jp ilin.Vec) bool {
			cell := d.Map(jp, ti)
			gt, gjp, _, ok := d.mapInverse(cell)
			if !ok || gt != ti || !gjp.Equal(jp) {
				t.Fatalf("mapInverse(Map(%v, %d)) = (%d, %v, %v)", jp, ti, gt, gjp, ok)
			}
			return true
		})
	}
}

// TestLocRoundTrip: loc followed by loc⁻¹ is the identity on every
// iteration of the space (Table 1 ∘ Table 2 = id).
func TestLocRoundTrip(t *testing.T) {
	ts := rect2D(t, 9, 6, 2, 3)
	d, err := New(ts, 0)
	if err != nil {
		t.Fatal(err)
	}
	nb, err := ts.Nest.Bounds()
	if err != nil {
		t.Fatal(err)
	}
	nb.Scan(func(j ilin.Vec) bool {
		r, cell, err := d.Loc(j)
		if err != nil {
			t.Fatalf("Loc(%v): %v", j, err)
		}
		back, ok := d.locInverse(r, cell)
		if !ok || !back.Equal(j) {
			t.Fatalf("locInverse(Loc(%v)) = %v, %v", j, back, ok)
		}
		return true
	})
}

// TestLocDistinct: no two iterations share a processor cell.
func TestLocDistinct(t *testing.T) {
	ts := rect2D(t, 8, 8, 3, 3)
	d, err := New(ts, 1)
	if err != nil {
		t.Fatal(err)
	}
	nb, _ := ts.Nest.Bounds()
	seen := map[string]bool{}
	nb.Scan(func(j ilin.Vec) bool {
		r, cell, err := d.Loc(j)
		if err != nil {
			t.Fatal(err)
		}
		key := string(rune(r)) + cell.String()
		if seen[key] {
			t.Fatalf("cell collision at %v", j)
		}
		seen[key] = true
		return true
	})
}

func TestLocInversePadCells(t *testing.T) {
	ts := rect2D(t, 9, 5, 2, 3)
	d, err := New(ts, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Cell in the pad region (below offsets) must not invert.
	if _, ok := d.locInverse(0, ilin.NewVec(0, 0)); ok {
		t.Error("pad cell inverted")
	}
}

func TestFlattenPanicsOutside(t *testing.T) {
	ts := rect2D(t, 5, 5, 2, 2)
	d, _ := New(ts, 0)
	defer func() {
		if recover() == nil {
			t.Error("flatten outside shape did not panic")
		}
	}()
	d.flatten(0, ilin.NewVec(-1, 0))
}

// TestCommRegionCountMatchesScan: the tile table's point counts and region
// sizes against the enumerated region and the closed-form minJP counts, on
// every tile.
func TestCommRegionCountMatchesScan(t *testing.T) {
	ts := rect2D(t, 13, 10, 3, 4)
	d, err := New(ts, 0)
	if err != nil {
		t.Fatal(err)
	}
	d.Protocol()
	ts.ScanTiles(func(jS ilin.Vec) bool {
		f := d.tileOf(jS, true).shape
		if got, want := f.npts, d.countMinJP(jS, nil); got != want || got != ts.CountTilePoints(jS) {
			t.Fatalf("tile %v: table %d points, closed %d, tiling %d", jS, got, want, ts.CountTilePoints(jS))
		}
		for di, dm := range d.DM {
			got, want := f.region[di], d.commRegion(jS, dm, nil)
			if got != want || d.regionCountMinJP(jS, dm) != want {
				t.Fatalf("tile %v dm %v: table %d, closed %d, scan %d", jS, dm, got, d.regionCountMinJP(jS, dm), want)
			}
		}
		return true
	})
	if d.FullTileCommCount(0) != d.commRegion(ilin.NewVec(1, 1), d.DM[0], nil) {
		t.Error("full-tile comm count mismatch on interior tile")
	}
}

// TestMapInversePaperAgrees: the literal Table 2 formula and the
// lattice-coordinate reconstruction both invert Map on every computation
// cell of a chain, including the stride-2 Jacobi lattice.
func TestMapInversePaperAgrees(t *testing.T) {
	// Jacobi-style (stride 2, incremental offset) distribution on its first
	// three chain slots, and a dense (all strides 1) SOR-style one on every
	// slot of rank 0's chain.
	dj := jacobiDist(t)
	dd, err := New(rect2D(t, 11, 7, 3, 2), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		d     *Distribution
		slots int64
	}{{dj, min64(3, dj.ChainLen[0])}, {dd, dd.ChainLen[0]}} {
		d := c.d
		for ti := int64(0); ti < c.slots; ti++ {
			ttisPoints(d.TS.T, func(z, jp ilin.Vec) bool {
				cell := d.Map(jp, ti)
				if wt, wjp, _, ok := d.mapInverse(cell); !ok || wt != ti || !wjp.Equal(jp) {
					t.Fatalf("reconstruction gives (%d, %v, %v) at cell %v, Map came from (%d, %v)",
						wt, wjp, ok, cell, ti, jp)
				}
				if pt, pjp := d.mapInversePaper(cell); pt != ti || !pjp.Equal(jp) {
					t.Fatalf("paper formula gives (%d, %v) at cell %v, Map came from (%d, %v)",
						pt, pjp, cell, ti, jp)
				}
				return true
			})
		}
	}
}

// mapInverse inverts Map for cells in the computation region: given an LDS
// cell j” it returns the chain position t, the TTIS point j' and its lattice
// coordinate z (j' = H̃'·z). The reconstruction walks the Hermite form H̃'
// top-down, recovering each lattice coordinate and the stride remainders
// the paper's Table 2 expresses with modulo sums. ok is false for cells
// that correspond to no lattice point (padding or unused cells).
func (d *Distribution) mapInverse(jpp ilin.Vec) (t int64, jp, z ilin.Vec, ok bool) {
	n := d.TS.T.N
	ht := d.TS.T.HT
	c := d.TS.T.C
	v := d.TS.T.V
	jp = make(ilin.Vec, n)
	z = make(ilin.Vec, n)
	for k := 0; k < n; k++ {
		var base int64
		for l := 0; l < k; l++ {
			base += ht.At(k, l) * z[l]
		}
		rem := mod(base, c[k])
		if k == d.M {
			x := c[k]*(jpp[k]-d.Off[k]) + rem
			t = rat.FloorDiv(x, v[k])
			jp[k] = x - t*v[k]
		} else {
			jp[k] = c[k]*(jpp[k]-d.Off[k]) + rem
		}
		if jp[k] < 0 || jp[k] >= v[k] {
			return 0, nil, nil, false
		}
		z[k] = (jp[k] - base) / c[k]
	}
	return t, jp, z, true
}

// mapInversePaper is the literal Table 2 map⁻¹ formula of the paper:
//
//	t    = (j''_m − off_m)·c_m / v_m
//	j'_k = c_k·(j''_k − off_k) + (Σ_{l<k} h̃'_kl·j'_l) mod c_k   (k ≠ m)
//	j'_m = c_m·(j''_m − off_m) − t·v_m + (Σ_{l<m} h̃'_ml·j'_l) mod c_m
//
// using previously recovered j'_l values (not lattice coordinates) inside
// the modulo sums. mapInverse recovers the strides' remainders through the
// lattice coordinates instead; both invert Map, because modulo c_k the
// Hermite column relations make Σ h̃'_kl·j'_l ≡ Σ h̃'_kl·z_l.
func (d *Distribution) mapInversePaper(jpp ilin.Vec) (t int64, jp ilin.Vec) {
	n := d.TS.T.N
	ht := d.TS.T.HT
	c := d.TS.T.C
	v := d.TS.T.V
	jp = make(ilin.Vec, n)
	// The paper evaluates t first from the mapping coordinate alone.
	t = rat.FloorDiv((jpp[d.M]-d.Off[d.M])*c[d.M], v[d.M])
	for k := 0; k < n; k++ {
		var sum int64
		for l := 0; l < k; l++ {
			sum += ht.At(k, l) * jp[l]
		}
		rem := mod(sum, c[k])
		if k == d.M {
			jp[k] = c[k]*(jpp[k]-d.Off[k]) - t*v[k] + rem
		} else {
			jp[k] = c[k]*(jpp[k]-d.Off[k]) + rem
		}
	}
	return t, jp
}

// mod returns a mod c in [0, c) for c > 0.
func mod(a, c int64) int64 { return a - c*rat.FloorDiv(a, c) }

// locInverse is the paper's loc⁻¹(j”, pid) (Table 2): the original
// iteration whose result lives in cell j” of processor rank r. ok is
// false for pad/unused cells.
func (d *Distribution) locInverse(r int, jpp ilin.Vec) (ilin.Vec, bool) {
	t, _, z, ok := d.mapInverse(jpp)
	if !ok || t < 0 || t >= d.ChainLen[r] {
		return nil, false
	}
	return d.TS.T.P.MulVec(d.TileAt(r, t)).Add(d.TS.T.U.MulVec(z)), true
}

// flatten converts a multi-dimensional LDS cell to a linear index for
// processor r's backing array, row-major: the reference the Addresser's
// Flat and FlatRead are checked against.
func (d *Distribution) flatten(r int, jpp ilin.Vec) int64 {
	shape := d.LDSShape(r)
	var idx int64
	for k := 0; k < len(shape); k++ {
		if jpp[k] < 0 || jpp[k] >= shape[k] {
			panic(fmt.Sprintf("distrib: LDS cell %v outside shape %v (rank %d)", jpp, shape, r))
		}
		idx = idx*shape[k] + jpp[k]
	}
	return idx
}

var benchRank int

// benchTiles lists d's tiles, each a copy.
func benchTiles(d *Distribution) []ilin.Vec {
	var tiles []ilin.Vec
	d.TS.ScanTiles(func(jS ilin.Vec) bool {
		tiles = append(tiles, jS.Clone())
		return true
	})
	return tiles
}

// BenchmarkRankOfTile times the rank-table lookup of a tile, cycling through
// the skewed Jacobi space's tiles; CI greps its allocs/op.
func BenchmarkRankOfTile(b *testing.B) {
	d := jacobiDist(b)
	tiles := benchTiles(d)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchRank, _ = d.RankOfTile(tiles[i%len(tiles)])
	}
}

// BenchmarkMinSucc times minsucc over every (tile, direction) pair of the
// skewed Jacobi space in turn; CI greps its allocs/op.
func BenchmarkMinSucc(b *testing.B) {
	d := jacobiDist(b)
	tiles := benchTiles(d)
	nd := len(d.DM)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchRank, _ = d.MinSucc(tiles[i/nd%len(tiles)], i%nd)
	}
}
