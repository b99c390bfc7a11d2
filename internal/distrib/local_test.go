package distrib

import (
	"testing"

	"tilespace/internal/ilin"
	"tilespace/internal/loopnest"
	"tilespace/internal/tiling"
)

// sorDist is a box nest under the skewed SOR dependences — one of them,
// (0,0,1), runs along the innermost dimension, so a point reads its own row —
// tiled rectangularly and mapped along that dimension.
func sorDist(t *testing.T) *Distribution {
	t.Helper()
	deps := ilin.MatFromRows(
		[]int64{0, 0, 1, 1, 1},
		[]int64{1, 0, 0, 1, 1},
		[]int64{0, 1, 2, 1, 2},
	)
	nest, err := loopnest.Box([]string{"t", "i", "j"}, []int64{0, 0, 0}, []int64{5, 7, 9}, deps)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := tiling.Rectangular(2, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := tiling.Analyze(nest, tr.H)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(ts, 2)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestSeqDimsHandCases pins the greedy cover on hand matrices.
func TestSeqDimsHandCases(t *testing.T) {
	cases := []struct {
		name string
		rows [][]int64
		want []int
	}{
		// Every column positive in dim 0 (Jacobi-after-skew shape): only
		// the time dimension is sequential.
		{"first-row-covers", [][]int64{{1, 1, 1}, {0, 2, 1}, {1, 0, 3}}, []int{0}},
		// Dim 0 misses column 2; dim 1 picks it up.
		{"two-dims", [][]int64{{1, 1, 0}, {0, 1, 2}, {3, 0, 1}}, []int{0, 1}},
		// Dim 0 carries nothing: skipped entirely.
		{"skip-empty-dim", [][]int64{{0, 0}, {2, 1}}, []int{1}},
		// Diagonal: every dimension carries its own dependence.
		{"diagonal", [][]int64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}, []int{0, 1, 2}},
	}
	for _, c := range cases {
		got := SeqDims(ilin.MatFromRows(c.rows...))
		if len(got) != len(c.want) {
			t.Fatalf("%s: SeqDims = %v, want %v", c.name, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("%s: SeqDims = %v, want %v", c.name, got, c.want)
			}
		}
	}
	if got := SeqDims(ilin.NewMat(3, 0)); len(got) != 0 {
		t.Fatalf("empty dependence matrix: SeqDims = %v, want empty", got)
	}
}

// TestSeqDimsCoverProperty: on a real cone-derived DP, every dependence
// column must have a nonzero component in some chosen dimension, and each
// chosen dimension must cover a column no earlier choice did (greedy
// non-redundancy).
func TestSeqDimsCoverProperty(t *testing.T) {
	dp := jacobiDist(t).TS.DP
	seq := SeqDims(dp)
	if len(seq) == 0 {
		t.Fatal("nonempty DP produced an empty sequential set")
	}
	covered := make([]bool, dp.Cols)
	for _, k := range seq {
		fresh := false
		for l := 0; l < dp.Cols; l++ {
			if dp.At(k, l) != 0 && !covered[l] {
				fresh = true
				covered[l] = true
			}
		}
		if !fresh {
			t.Fatalf("dimension %d covers no new column — not a greedy cover", k)
		}
	}
	for l, c := range covered {
		if !c {
			t.Fatalf("dependence column %d uncovered by %v", l, seq)
		}
	}
}

// TestNewLocalScheduleSafety: on real clamped shapes (interior and
// boundary), the schedule must partition the row set, keep σ strictly
// ascending across fronts and constant within a front, and — the safety
// theorem, checked point by point — place the source of every intra-tile
// dependence either earlier in the sink's own row or in a row of a strictly
// earlier front.
func TestNewLocalScheduleSafety(t *testing.T) {
	for name, d := range map[string]*Distribution{"jacobi": jacobiDist(t), "sor": sorDist(t)} {
		ts := d.TS
		seq := SeqDims(ts.DP)
		for r := 0; r < d.NumProcs(); r += d.NumProcs() - 1 {
			for ti := int64(0); ti < min64(2, d.ChainLen[r]); ti++ {
				tile := d.TileAt(r, ti)
				var zs []int64
				ts.ScanTileRows(tile, func(z, jp ilin.Vec, n int64) bool {
					zs = append(zs, z...)
					return true
				})
				nrows := len(zs) / ts.T.N
				ls := NewLocalSchedule(ts, zs, seq)
				if len(ls.Sigma) != nrows {
					t.Fatalf("%s: Sigma has %d entries, shape has %d rows", name, len(ls.Sigma), nrows)
				}
				frontOf := make([]int, nrows)
				for i := range frontOf {
					frontOf[i] = -1
				}
				prev := int64(0)
				for fi, front := range ls.Fronts {
					if len(front) == 0 {
						t.Fatalf("%s: front %d is empty", name, fi)
					}
					sig := ls.Sigma[front[0]]
					if fi > 0 && sig <= prev {
						t.Fatalf("%s: front %d: σ=%d not above previous front's %d", name, fi, sig, prev)
					}
					prev = sig
					for _, row := range front {
						if ls.Sigma[row] != sig {
							t.Fatalf("%s: front %d mixes σ=%d and σ=%d", name, fi, sig, ls.Sigma[row])
						}
						if frontOf[row] != -1 {
							t.Fatalf("%s: row %d scheduled twice", name, row)
						}
						frontOf[row] = fi
					}
				}
				for row, f := range frontOf {
					if f == -1 {
						t.Fatalf("%s: row %d never scheduled", name, row)
					}
				}
				// Safety, per point: (row, position in the row) of every j'.
				type place struct{ row, pos int }
				at := map[[3]int64]place{}
				row, pos := -1, 0
				var last ilin.Vec
				ts.ScanTilePoints(tile, func(z, jp ilin.Vec) bool {
					if last == nil || !last[:2].Equal(z[:2]) {
						row, pos, last = row+1, 0, z.Clone()
					}
					at[[3]int64{jp[0], jp[1], jp[2]}] = place{row, pos}
					pos++
					return true
				})
				if row != nrows-1 {
					t.Fatalf("%s: point scan saw %d rows, row scan %d", name, row+1, nrows)
				}
				for jp, sink := range at {
					for l := 0; l < ts.DP.Cols; l++ {
						src, ok := at[[3]int64{jp[0] - ts.DP.At(0, l), jp[1] - ts.DP.At(1, l), jp[2] - ts.DP.At(2, l)}]
						if !ok {
							continue
						}
						if src.row == sink.row {
							if src.pos >= sink.pos {
								t.Fatalf("%s: dependence %d stays in row %d but points forward (%d → %d)", name, l, sink.row, src.pos, sink.pos)
							}
						} else if frontOf[src.row] >= frontOf[sink.row] {
							t.Fatalf("%s: dependence %d: source row %d (front %d) not before sink row %d (front %d)",
								name, l, src.row, frontOf[src.row], sink.row, frontOf[sink.row])
						}
					}
				}
			}
		}
	}
}
