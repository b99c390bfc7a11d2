package tiling

import (
	"reflect"
	"testing"
	"testing/quick"

	"tilespace/internal/ilin"
	"tilespace/internal/rat"
)

// sorHnr builds §4.1's non-rectangular SOR tiling for factors x, y, z.
func sorHnr(x, y, z int64) *ilin.RatMat {
	h := ilin.NewRatMat(3, 3)
	h.Set(0, 0, rat.New(1, x))
	h.Set(1, 1, rat.New(1, y))
	h.Set(2, 0, rat.New(-1, z))
	h.Set(2, 2, rat.New(1, z))
	return h
}

// jacobiHnr builds §4.2's non-rectangular Jacobi tiling (needs even y for
// an integral P).
func jacobiHnr(x, y, z int64) *ilin.RatMat {
	h := ilin.NewRatMat(3, 3)
	h.Set(0, 0, rat.New(1, x))
	h.Set(0, 1, rat.New(-1, 2*x))
	h.Set(1, 1, rat.New(1, y))
	h.Set(2, 2, rat.New(1, z))
	return h
}

func TestRectangularTransform(t *testing.T) {
	tr, err := Rectangular(3, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr.P, ilin.MatFromRows([]int64{3, 0, 0}, []int64{0, 4, 0}, []int64{0, 0, 5})) {
		t.Errorf("P = \n%v", tr.P)
	}
	if !tr.V.Equal(ilin.NewVec(3, 4, 5)) {
		t.Errorf("V = %v", tr.V)
	}
	if !reflect.DeepEqual(tr.HP, ilin.Identity(3)) || !reflect.DeepEqual(tr.HT, ilin.Identity(3)) {
		t.Error("H' and H̃' should be the identity for rectangular tiling")
	}
	if !tr.C.Equal(ilin.NewVec(1, 1, 1)) {
		t.Errorf("strides = %v", tr.C)
	}
	if tr.TileSize != 60 {
		t.Errorf("TileSize = %d", tr.TileSize)
	}
	if _, err := Rectangular(2, 0); err == nil {
		t.Error("zero extent not rejected")
	}
}

func TestSORTransform(t *testing.T) {
	tr, err := New(sorHnr(4, 5, 6))
	if err != nil {
		t.Fatal(err)
	}
	wantP := ilin.MatFromRows([]int64{4, 0, 0}, []int64{0, 5, 0}, []int64{4, 0, 6})
	if !reflect.DeepEqual(tr.P, wantP) {
		t.Errorf("P = \n%v, want \n%v", tr.P, wantP)
	}
	if !tr.V.Equal(ilin.NewVec(4, 5, 6)) {
		t.Errorf("V = %v", tr.V)
	}
	wantHP := ilin.MatFromRows([]int64{1, 0, 0}, []int64{0, 1, 0}, []int64{-1, 0, 1})
	if !reflect.DeepEqual(tr.HP, wantHP) {
		t.Errorf("H' = \n%v", tr.HP)
	}
	// H' is unimodular here, so the TTIS has no holes: strides are all 1.
	if !tr.C.Equal(ilin.NewVec(1, 1, 1)) {
		t.Errorf("strides = %v", tr.C)
	}
	if tr.TileSize != 4*5*6 {
		t.Errorf("TileSize = %d", tr.TileSize)
	}
}

func TestJacobiTransform(t *testing.T) {
	tr, err := New(jacobiHnr(3, 4, 5))
	if err != nil {
		t.Fatal(err)
	}
	if !tr.V.Equal(ilin.NewVec(6, 4, 5)) {
		t.Errorf("V = %v", tr.V)
	}
	wantHP := ilin.MatFromRows([]int64{2, -1, 0}, []int64{0, 1, 0}, []int64{0, 0, 1})
	if !reflect.DeepEqual(tr.HP, wantHP) {
		t.Errorf("H' = \n%v", tr.HP)
	}
	wantHT := ilin.MatFromRows([]int64{1, 0, 0}, []int64{1, 2, 0}, []int64{0, 0, 1})
	if !reflect.DeepEqual(tr.HT, wantHT) {
		t.Errorf("H̃' = \n%v", tr.HT)
	}
	if !tr.C.Equal(ilin.NewVec(1, 2, 1)) {
		t.Errorf("strides = %v, want (1,2,1)", tr.C)
	}
	if tr.TileSize != 3*4*5 {
		t.Errorf("TileSize = %d, want %d", tr.TileSize, 3*4*5)
	}
}

func TestJacobiOddYRejected(t *testing.T) {
	if _, err := New(jacobiHnr(3, 5, 5)); err == nil {
		t.Error("odd y should make P non-integral and be rejected")
	}
}

func TestNewErrors(t *testing.T) {
	if _, err := New(ilin.NewRatMat(2, 3)); err == nil {
		t.Error("non-square H not rejected")
	}
	if _, err := New(ilin.NewRatMat(2, 2)); err == nil {
		t.Error("singular H not rejected")
	}
}

func TestFromP(t *testing.T) {
	p := ilin.MatFromRows([]int64{4, 0, 0}, []int64{0, 5, 0}, []int64{4, 0, 6})
	tr, err := FromP(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr.H, sorHnr(4, 5, 6)) {
		t.Errorf("H = \n%v", tr.H)
	}
	if _, err := FromP(ilin.NewMat(2, 2)); err == nil {
		t.Error("singular P not rejected")
	}
	if _, err := FromP(ilin.NewMat(2, 3)); err == nil {
		t.Error("non-square P not rejected")
	}
}

// TestScanTTISCountsTileSize: the number of TTIS lattice points must equal
// |det P| for every transform (the lattice partitions the box).
func TestScanTTISCountsTileSize(t *testing.T) {
	cases := []*Transform{
		mustNew(t, sorHnr(3, 4, 5)),
		mustNew(t, jacobiHnr(3, 4, 5)),
		mustNew(t, jacobiHnr(2, 2, 3)),
		mustRect(t, 2, 3),
	}
	for i, tr := range cases {
		if got := tr.ScanTTIS(func(z, jp ilin.Vec, n int64) bool { return true }); got != tr.TileSize {
			t.Errorf("case %d: TTIS count = %d, want %d", i, got, tr.TileSize)
		}
	}
}

func mustRect(t *testing.T, sizes ...int64) *Transform {
	t.Helper()
	tr, err := Rectangular(sizes...)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestScanTTISPointsAreInTIS: every enumerated lattice point j' maps to a
// global point U·z inside the origin tile, with TTIS coordinates within
// the box and on the lattice.
func TestScanTTISPointsAreInTIS(t *testing.T) {
	tr := mustNew(t, jacobiHnr(2, 4, 3))
	ttisPoints(tr, func(z, jp ilin.Vec) bool {
		j := tr.U.MulVec(z)
		if !tr.TileOf(j).IsZero() {
			t.Errorf("z=%v: global %v is not in the TIS", z, j)
			return false
		}
		for k := 0; k < tr.N; k++ {
			if jp[k] < 0 || jp[k] >= tr.V[k] {
				t.Errorf("j' = %v outside the TTIS box", jp)
				return false
			}
		}
		if got := tr.HT.MulVec(z); !got.Equal(jp) {
			t.Errorf("H̃'·%v = %v, scan gave %v", z, got, jp)
			return false
		}
		return true
	})
}

// TestLocateGlobalRoundTrip: for every j in a test box, locating j (TileOf,
// TTISCoord, the lattice point ScanTTIS enumerates) and mapping back with
// Global is the identity, and TTIS coordinates stay within the box bounds.
func TestLocateGlobalRoundTrip(t *testing.T) {
	for _, tr := range []*Transform{mustNew(t, jacobiHnr(2, 4, 3)), mustNew(t, sorHnr(2, 3, 4))} {
		lat := lattice(tr)
		for a := int64(-3); a <= 6; a++ {
			for b := int64(-3); b <= 6; b++ {
				for c := int64(-3); c <= 6; c++ {
					j := ilin.NewVec(a, b, c)
					jS, jp, z, ok := locate(tr, lat, j)
					if !ok {
						t.Fatalf("locate(%v) failed", j)
					}
					for k := 0; k < 3; k++ {
						if jp[k] < 0 || jp[k] >= tr.V[k] {
							t.Fatalf("locate(%v): j' = %v outside box", j, jp)
						}
					}
					if got := tr.Global(jS, z); !got.Equal(j) {
						t.Fatalf("Global(locate(%v)) = %v", j, got)
					}
					if got := tr.TileOf(j); !got.Equal(jS) {
						t.Fatalf("TileOf mismatch at %v", j)
					}
				}
			}
		}
	}
}

func TestQuickLocateRoundTrip(t *testing.T) {
	tr := mustNew(t, jacobiHnr(3, 6, 4))
	lat := lattice(tr)
	f := func(a, b, c int16) bool {
		j := ilin.NewVec(int64(a), int64(b), int64(c))
		jS, _, z, ok := locate(tr, lat, j)
		return ok && tr.Global(jS, z).Equal(j)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestLegalAndDeps(t *testing.T) {
	d := ilin.MatFromRows(
		[]int64{1, 1, 1, 1, 1},
		[]int64{1, 2, 0, 1, 1},
		[]int64{1, 1, 1, 2, 0},
	) // skewed Jacobi
	tr := mustNew(t, jacobiHnr(2, 4, 3))
	if !tr.Legal(d) {
		t.Fatal("Jacobi H_nr should be legal for skewed Jacobi deps")
	}
	dp := tr.TransformedDeps(d)
	wantCol0 := ilin.NewVec(1, 1, 1) // H'·(1,1,1) = (2-1, 1, 1)
	if !dp.Col(0).Equal(wantCol0) {
		t.Errorf("D' col0 = %v, want %v", dp.Col(0), wantCol0)
	}
	if !tr.MaxDepPrime(d).Equal(ilin.NewVec(2, 2, 2)) {
		t.Errorf("MaxDP = %v", tr.MaxDepPrime(d))
	}
	// CC = V - MaxDP = (4-2, 4-2, 3-2).
	if !tr.CommVector(d).Equal(ilin.NewVec(2, 2, 1)) {
		t.Errorf("CC = %v", tr.CommVector(d))
	}

	bad := ilin.MatFromRows([]int64{-1}, []int64{0}, []int64{0})
	if tr.Legal(bad) {
		t.Error("negative-time dependence should be illegal")
	}
}

func TestMaxDepPrimeNoDeps(t *testing.T) {
	tr := mustRect(t, 2, 2)
	if !tr.MaxDepPrime(ilin.NewMat(2, 0)).Equal(ilin.NewVec(0, 0)) {
		t.Error("MaxDP with no deps should be zero")
	}
	if !tr.CommVector(ilin.NewMat(2, 0)).Equal(ilin.NewVec(2, 2)) {
		t.Error("CC with no deps should equal V")
	}
}

func TestZOfHole(t *testing.T) {
	lat := lattice(mustNew(t, jacobiHnr(2, 4, 3)))
	// (0,1,0) is a hole: j'_2 = 1 requires j'_1 odd when j'_1 = 0.
	if _, ok := lat[ilin.NewVec(0, 1, 0).String()]; ok {
		t.Error("(0,1,0) should be a TTIS hole")
	}
	if _, ok := lat[ilin.NewVec(1, 1, 0).String()]; !ok {
		t.Error("(1,1,0) should be a TTIS lattice point")
	}
}

func TestTransformString(t *testing.T) {
	if mustNew(t, jacobiHnr(2, 4, 3)).String() == "" {
		t.Error("empty String")
	}
}

func mustNew(t *testing.T, h *ilin.RatMat) *Transform {
	t.Helper()
	tr, err := New(h)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// ttisPoints walks the rows of tr's TTIS point by point: fn sees each
// lattice point z with j' = H̃'·z, in ScanTTIS order, and returning false
// stops the walk. It returns the number of points visited.
func ttisPoints(tr *Transform, fn func(z, jp ilin.Vec) bool) int64 {
	last := tr.N - 1
	var count int64
	tr.ScanTTIS(func(z, jp ilin.Vec, n int64) bool {
		for i := int64(0); i < n; i++ {
			count++
			if !fn(z, jp) {
				return false
			}
			z[last]++
			jp[last] += tr.C[last]
		}
		return true
	})
	return count
}

// lattice maps every lattice point j' of tr's TTIS, by its String, to its
// lattice coordinate z (j' = H̃'·z), as ScanTTIS enumerates them.
func lattice(tr *Transform) map[string]ilin.Vec {
	lat := map[string]ilin.Vec{}
	ttisPoints(tr, func(z, jp ilin.Vec) bool {
		lat[jp.String()] = z.Clone()
		return true
	})
	return lat
}

// Global returns j = P·j^S + U·z for a tile j^S and TTIS lattice
// coordinate z (where j' = H̃'·z): the paper's j = P·j^S + P'·j'
// specialized to lattice points, P'·j' = P'·H̃'·z = U·z, all-integer.
func (t *Transform) Global(jS, z ilin.Vec) ilin.Vec {
	return t.P.MulVec(jS).Add(t.U.MulVec(z))
}

// locate decomposes a global iteration j into its tile j^S, TTIS
// coordinate j' and lattice coordinate z; ok is false when j' is not a
// lattice point of the TTIS.
func locate(tr *Transform, lat map[string]ilin.Vec, j ilin.Vec) (jS, jp, z ilin.Vec, ok bool) {
	jS = tr.TileOf(j)
	jp = tr.TTISCoord(j, jS)
	z, ok = lat[jp.String()]
	return jS, jp, z, ok
}
