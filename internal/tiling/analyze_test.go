package tiling

import (
	"reflect"
	"testing"

	"tilespace/internal/ilin"
	"tilespace/internal/loopnest"
)

func unitDeps2() *ilin.Mat {
	return ilin.MatFromRows([]int64{1, 0}, []int64{0, 1})
}

func box2(t *testing.T, hi1, hi2 int64, deps *ilin.Mat) *loopnest.Nest {
	t.Helper()
	n, err := loopnest.Box([]string{"i", "j"}, []int64{0, 0}, []int64{hi1, hi2}, deps)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestAnalyzeRect2D(t *testing.T) {
	nest := box2(t, 5, 5, unitDeps2()) // 6×6 points
	tr, _ := Rectangular(2, 3)
	ts, err := Analyze(nest, tr.H)
	if err != nil {
		t.Fatal(err)
	}
	if got := ts.NumTiles(); got != 3*2 {
		t.Errorf("NumTiles = %d, want 6", got)
	}
	if got := ts.TotalPoints(); got != 36 {
		t.Errorf("TotalPoints = %d, want 36", got)
	}
	if len(ts.DS) != 2 || !ts.DS[0].Equal(ilin.NewVec(0, 1)) || !ts.DS[1].Equal(ilin.NewVec(1, 0)) {
		t.Errorf("DS = %v", ts.DS)
	}
	if !ts.CC.Equal(ilin.NewVec(1, 2)) { // V - maxd' = (2-1, 3-1)
		t.Errorf("CC = %v", ts.CC)
	}
}

// TestAnalyzeBoundaryClamping: a 7×5 space under 3×2 tiles has ragged
// boundary tiles; the per-tile point counts must sum to the exact size.
func TestAnalyzeBoundaryClamping(t *testing.T) {
	nest := box2(t, 6, 4, unitDeps2()) // 7×5 = 35 points
	tr, _ := Rectangular(3, 2)
	ts, err := Analyze(nest, tr.H)
	if err != nil {
		t.Fatal(err)
	}
	if got := ts.NumTiles(); got != 3*3 {
		t.Errorf("NumTiles = %d, want 9", got)
	}
	if got := ts.TotalPoints(); got != 35 {
		t.Errorf("TotalPoints = %d, want 35", got)
	}
	// Corner tile (2,2) covers i=6, j=4: a single point.
	if got := ts.TilePointCount(ilin.NewVec(2, 2)); got != 1 {
		t.Errorf("corner tile count = %d, want 1", got)
	}
	if !ts.ValidTile(ilin.NewVec(2, 2)) || ts.ValidTile(ilin.NewVec(3, 0)) {
		t.Error("ValidTile mismatch")
	}
}

// TestAnalyzeNonRect2D uses a skewed tile H = [[1/2,0],[1/4,1/4]] (rows in
// the cone of unit deps), P = [[2,0],[-2,4]].
func TestAnalyzeNonRect2D(t *testing.T) {
	h := ratMat(t,
		[]string{"1/2", "0"},
		[]string{"1/4", "1/4"},
	)
	nest := box2(t, 7, 7, unitDeps2()) // 64 points
	ts, err := Analyze(nest, h)
	if err != nil {
		t.Fatal(err)
	}
	if ts.T.TileSize != 8 {
		t.Fatalf("TileSize = %d, want 8", ts.T.TileSize)
	}
	if got := ts.TotalPoints(); got != 64 {
		t.Errorf("TotalPoints = %d, want 64", got)
	}
	// Every enumerated point must be inside the original space and inside
	// its own tile.
	ts.ScanTiles(func(jS ilin.Vec) bool {
		tile := jS.Clone()
		ts.ScanTilePoints(tile, func(z, jp ilin.Vec) bool {
			j := ts.GlobalOf(tile, z)
			if !nest.Space.Contains(j) {
				t.Errorf("tile %v point %v outside space", tile, j)
				return false
			}
			if !ts.T.TileOf(j).Equal(tile) {
				t.Errorf("point %v not in tile %v", j, tile)
				return false
			}
			return true
		})
		return true
	})
}

// TestAnalyzePartition: the tiles partition the iteration space — every
// point appears in exactly one tile.
func TestAnalyzePartition(t *testing.T) {
	h := ratMat(t,
		[]string{"1/2", "0"},
		[]string{"1/4", "1/4"},
	)
	nest := box2(t, 6, 5, unitDeps2())
	ts, err := Analyze(nest, h)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	ts.ScanTiles(func(jS ilin.Vec) bool {
		tile := jS.Clone()
		ts.ScanTilePoints(tile, func(z, jp ilin.Vec) bool {
			seen[ts.GlobalOf(tile, z).String()]++
			return true
		})
		return true
	})
	want, _ := nest.Size()
	if int64(len(seen)) != want {
		t.Errorf("covered %d distinct points, want %d", len(seen), want)
	}
	for p, c := range seen {
		if c != 1 {
			t.Errorf("point %s covered %d times", p, c)
		}
	}
}

func TestAnalyzeIllegalTiling(t *testing.T) {
	// Dep (1,0) with tile row (-1/2, 1/2): H·d < 0.
	h := ratMat(t,
		[]string{"-1/2", "1/2"},
		[]string{"0", "1/2"},
	)
	nest := box2(t, 5, 5, unitDeps2())
	if _, err := Analyze(nest, h); err == nil {
		t.Error("illegal tiling not rejected")
	}
}

func TestAnalyzeDimensionMismatch(t *testing.T) {
	nest := box2(t, 5, 5, unitDeps2())
	tr, _ := Rectangular(2, 2, 2)
	if _, err := Analyze(nest, tr.H); err == nil {
		t.Error("dimension mismatch not rejected")
	}
}

func TestAnalyzeDepExceedsTile(t *testing.T) {
	nest, err := loopnest.Box([]string{"i", "j"}, []int64{0, 0}, []int64{5, 5}, ilin.MatFromRows([]int64{3, 0}, []int64{0, 1}))
	if err != nil {
		t.Fatal(err)
	}
	tr, _ := Rectangular(2, 2)
	if _, err := Analyze(nest, tr.H); err == nil {
		t.Error("dependence longer than tile not rejected")
	}
}

// TestTileDepsSkewedSOR pins D^S for the skewed SOR with its H_nr: all
// unit combinations reachable given D' and tile extents.
func TestTileDepsSkewedSOR(t *testing.T) {
	d := ilin.MatFromRows(
		[]int64{1, 0, 1, 1, 0},
		[]int64{1, 1, 0, 1, 0},
		[]int64{2, 0, 2, 1, 1},
	)
	nest, err := loopnest.Box([]string{"t", "i", "j"}, []int64{0, 0, 0}, []int64{7, 7, 7}, d)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := Analyze(nest, sorHnr(4, 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	// D' = H'·D: H' = [[1,0,0],[0,1,0],[-1,0,1]].
	// cols: (1,1,1),(0,1,0),(1,0,1),(1,1,0),(0,0,1).
	wantDP := ilin.MatFromRows(
		[]int64{1, 0, 1, 1, 0},
		[]int64{1, 1, 0, 1, 0},
		[]int64{1, 0, 1, 0, 1},
	)
	if !reflect.DeepEqual(ts.DP, wantDP) {
		t.Errorf("D' =\n%v, want\n%v", ts.DP, wantDP)
	}
	for _, dS := range ts.DS {
		if !dS.LexPositive() {
			t.Errorf("tile dep %v not lex positive", dS)
		}
	}
	// The deps must include the three axis-aligned unit vectors.
	set := map[string]bool{}
	for _, dS := range ts.DS {
		set[dS.String()] = true
	}
	for _, w := range []ilin.Vec{ilin.NewVec(1, 0, 0), ilin.NewVec(0, 1, 0), ilin.NewVec(0, 0, 1)} {
		if !set[w.String()] {
			t.Errorf("missing tile dep %v (have %v)", w, ts.DS)
		}
	}
}

// TestJacobiAnalyzeTotal: Jacobi H_nr with stride-2 dimension must still
// partition exactly.
func TestJacobiAnalyzeTotal(t *testing.T) {
	d := ilin.MatFromRows(
		[]int64{1, 1, 1, 1, 1},
		[]int64{1, 2, 0, 1, 1},
		[]int64{1, 1, 1, 2, 0},
	)
	nest, err := loopnest.Box([]string{"t", "i", "j"}, []int64{0, 0, 0}, []int64{5, 6, 6}, d)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := Analyze(nest, jacobiHnr(2, 4, 3))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := nest.Size()
	if got := ts.TotalPoints(); got != want {
		t.Errorf("TotalPoints = %d, want %d", got, want)
	}
}

// TestCountTilePointsMatchesScan: the closed-form counter must agree with
// the explicit scan on interior, boundary and empty tiles.
func TestCountTilePointsMatchesScan(t *testing.T) {
	h := ratMat(t,
		[]string{"1/2", "0"},
		[]string{"1/4", "1/4"},
	)
	nest := box2(t, 10, 9, unitDeps2())
	ts, err := Analyze(nest, h)
	if err != nil {
		t.Fatal(err)
	}
	ts.ScanTiles(func(jS ilin.Vec) bool {
		want := ts.ScanTilePoints(jS, func(z, jp ilin.Vec) bool { return true })
		if got := ts.CountTilePoints(jS); got != want {
			t.Fatalf("tile %v: closed %d, scan %d", jS, got, want)
		}
		return true
	})
}

// TestTileFullyInsideConsistent: fully-inside implies exactly TileSize
// points, and never false positives.
func TestTileFullyInsideConsistent(t *testing.T) {
	nest := box2(t, 10, 9, unitDeps2())
	tr, _ := Rectangular(3, 2)
	ts, err := Analyze(nest, tr.H)
	if err != nil {
		t.Fatal(err)
	}
	full := 0
	ts.ScanTiles(func(jS ilin.Vec) bool {
		if ts.TileFullyInside(jS) {
			full++
			if got := ts.TilePointCount(jS); got != ts.T.TileSize {
				t.Fatalf("full tile %v has %d points", jS, got)
			}
		}
		return true
	})
	if full == 0 {
		t.Error("expected some fully-inside tiles")
	}
}

var benchPoints int64

func countRow(z, jp ilin.Vec, n int64) bool { return n > 0 }

// BenchmarkScanTileRows times the row scan of one tile of a skewed SOR space
// under its non-rectangular tiling, cycling through interior and clamped
// tiles; CI greps its allocs/op.
func BenchmarkScanTileRows(b *testing.B) {
	d := ilin.MatFromRows(
		[]int64{1, 0, 1, 1, 0},
		[]int64{1, 1, 0, 1, 0},
		[]int64{2, 0, 2, 1, 1},
	)
	nest, err := loopnest.Box([]string{"t", "i", "j"}, []int64{0, 0, 0}, []int64{15, 15, 15}, d)
	if err != nil {
		b.Fatal(err)
	}
	ts, err := Analyze(nest, sorHnr(4, 4, 4))
	if err != nil {
		b.Fatal(err)
	}
	var tiles []ilin.Vec
	ts.ScanTiles(func(jS ilin.Vec) bool {
		tiles = append(tiles, jS.Clone())
		return true
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPoints = ts.ScanTileRows(tiles[i%len(tiles)], countRow)
	}
}
