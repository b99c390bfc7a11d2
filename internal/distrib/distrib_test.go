package distrib

import (
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
	// Successors of tile (2,2) in direction (1): only d^S = (0,1) projects
	// to (1), so minsucc = (2,3).
	succ, ok := d.MinSucc(ilin.NewVec(2, 2), ilin.NewVec(1))
	if !ok || !succ.Equal(ilin.NewVec(2, 3)) {
		t.Errorf("MinSucc = %v, %v", succ, ok)
	}
	// Boundary tile (2,4) has no successor in direction (1).
	if _, ok := d.MinSucc(ilin.NewVec(2, 4), ilin.NewVec(1)); ok {
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
		ts.T.ScanTTIS(func(z, jp ilin.Vec) bool {
			cell := d.Map(jp, ti)
			idx := d.Flatten(0, cell)
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
		ts.T.ScanTTIS(func(z, jp ilin.Vec) bool {
			cell := d.Map(jp, ti)
			gt, gjp, ok := d.MapInverse(cell)
			if !ok || gt != ti || !gjp.Equal(jp) {
				t.Fatalf("MapInverse(Map(%v, %d)) = (%d, %v, %v)", jp, ti, gt, gjp, ok)
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
		back, ok := d.LocInverse(r, cell)
		if !ok || !back.Equal(j) {
			t.Fatalf("LocInverse(Loc(%v)) = %v, %v", j, back, ok)
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
	if _, ok := d.LocInverse(0, ilin.NewVec(0, 0)); ok {
		t.Error("pad cell inverted")
	}
}

func TestFlattenPanicsOutside(t *testing.T) {
	ts := rect2D(t, 5, 5, 2, 2)
	d, _ := New(ts, 0)
	defer func() {
		if recover() == nil {
			t.Error("Flatten outside shape did not panic")
		}
	}()
	d.Flatten(0, ilin.NewVec(-1, 0))
}

// TestCommRegionCountMatchesScan: closed form vs enumerated region.
func TestCommRegionCountMatchesScan(t *testing.T) {
	ts := rect2D(t, 13, 10, 3, 4)
	d, err := New(ts, 0)
	if err != nil {
		t.Fatal(err)
	}
	ts.ScanTiles(func(jS ilin.Vec) bool {
		for _, dm := range d.DM {
			if got, want := d.CommRegionCount(jS, dm), d.CommRegion(jS, dm, nil); got != want {
				t.Fatalf("tile %v dm %v: closed %d, scan %d", jS, dm, got, want)
			}
		}
		return true
	})
	if d.FullTileCommCount(d.DM[0]) != d.CommRegionCount(ilin.NewVec(1, 1), d.DM[0]) {
		t.Error("full-tile comm count mismatch on interior tile")
	}
}

// TestMapInversePaperAgrees: the literal Table 2 formula and our
// lattice-coordinate reconstruction agree on every computation cell of a
// chain, including the stride-2 Jacobi lattice.
func TestMapInversePaperAgrees(t *testing.T) {
	// Jacobi-style (stride 2, incremental offset) distribution.
	d := jacobiDist(t)
	for ti := int64(0); ti < min64(3, d.ChainLen[0]); ti++ {
		d.TS.T.ScanTTIS(func(z, jp ilin.Vec) bool {
			cell := d.Map(jp, ti)
			wt, wjp, ok := d.MapInverse(cell)
			if !ok {
				t.Fatalf("MapInverse failed at %v", cell)
			}
			pt, pjp := d.MapInversePaper(cell)
			if pt != wt || !pjp.Equal(wjp) {
				t.Fatalf("paper formula (%d, %v) != reconstruction (%d, %v) at cell %v",
					pt, pjp, wt, wjp, cell)
			}
			return true
		})
	}
	// And a dense (all strides 1) SOR-style case.
	ts := rect2D(t, 11, 7, 3, 2)
	d2, err := New(ts, 0)
	if err != nil {
		t.Fatal(err)
	}
	for ti := int64(0); ti < d2.ChainLen[0]; ti++ {
		ts.T.ScanTTIS(func(z, jp ilin.Vec) bool {
			cell := d2.Map(jp, ti)
			wt, wjp, _ := d2.MapInverse(cell)
			pt, pjp := d2.MapInversePaper(cell)
			if pt != wt || !pjp.Equal(wjp) {
				t.Fatalf("dense case mismatch at %v", cell)
			}
			return true
		})
	}
}
