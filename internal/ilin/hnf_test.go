package ilin

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestHNFIdentity(t *testing.T) {
	res, err := HermiteNormalForm(Identity(3))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.H, Identity(3)) || !reflect.DeepEqual(res.U, Identity(3)) {
		t.Errorf("HNF(I) = \n%v\nU=\n%v", res.H, res.U)
	}
}

// TestHNFJacobiCase pins the HNF of the Jacobi experiment's H' = [[2,-1,0],
// [0,1,0],[0,0,1]] (paper §4.2 with x=1): its column lattice is
// {(p,q,r) : p+q even}, whose HNF is [[1,0,0],[1,2,0],[0,0,1]], giving
// strides c = (1,2,1) and incremental offset a_21 = 1.
func TestHNFJacobiCase(t *testing.T) {
	hp := MatFromRows([]int64{2, -1, 0}, []int64{0, 1, 0}, []int64{0, 0, 1})
	res, err := HermiteNormalForm(hp)
	if err != nil {
		t.Fatal(err)
	}
	want := MatFromRows([]int64{1, 0, 0}, []int64{1, 2, 0}, []int64{0, 0, 1})
	if !reflect.DeepEqual(res.H, want) {
		t.Errorf("HNF = \n%v, want \n%v", res.H, want)
	}
	if !reflect.DeepEqual(hp.Mul(res.U), res.H) {
		t.Error("A·U != H")
	}
	if !res.U.IsUnimodular() {
		t.Error("U not unimodular")
	}
}

func TestHNFNonSquare(t *testing.T) {
	if _, err := HermiteNormalForm(NewMat(2, 3)); err == nil {
		t.Error("expected error for non-square")
	}
}

func TestHNFSingular(t *testing.T) {
	if _, err := HermiteNormalForm(MatFromRows([]int64{1, 2}, []int64{2, 4})); err == nil {
		t.Error("expected error for singular matrix")
	}
}

func TestHNFShapeChecker(t *testing.T) {
	good := MatFromRows([]int64{1, 0}, []int64{1, 2})
	if !isLowerTriangularHNF(good) {
		t.Error("good HNF rejected")
	}
	bad := []*Mat{
		MatFromRows([]int64{1, 1}, []int64{0, 2}),  // upper entry
		MatFromRows([]int64{-1, 0}, []int64{0, 2}), // non-positive diagonal
		MatFromRows([]int64{1, 0}, []int64{2, 2}),  // off-diag ≥ diag
		NewMat(2, 3), // not square
	}
	for i, m := range bad {
		if isLowerTriangularHNF(m) {
			t.Errorf("bad case %d accepted", i)
		}
	}
}

func TestLatticeSolve(t *testing.T) {
	h := MatFromRows([]int64{1, 0, 0}, []int64{1, 2, 0}, []int64{0, 0, 1})
	// (3, 5, 7): z1=3, 3+2z2=5 -> z2=1, z3=7.
	z, ok := latticeSolve(h, NewVec(3, 5, 7))
	if !ok || !z.Equal(NewVec(3, 1, 7)) {
		t.Errorf("latticeSolve = %v, %v", z, ok)
	}
	// (3, 4, 7): 3+2z2=4 has no integer solution.
	if _, ok := latticeSolve(h, NewVec(3, 4, 7)); ok {
		t.Error("(3,4,7) should not be in lattice")
	}
}

// TestQuickHNFProperties checks on random nonsingular matrices that the
// HNF has the right shape, that A·U == H, that U is unimodular, and that
// the column lattices of A and H coincide (via random membership probes).
func TestQuickHNFProperties(t *testing.T) {
	f := func(s [9]byte, probe [3]int8) bool {
		a := randMat(3, s[:])
		if a.Det() == 0 {
			return true
		}
		res, err := HermiteNormalForm(a)
		if err != nil {
			return false
		}
		if !isLowerTriangularHNF(res.H) {
			return false
		}
		if !reflect.DeepEqual(a.Mul(res.U), res.H) {
			return false
		}
		if !res.U.IsUnimodular() {
			return false
		}
		// |det H| must equal |det A| (same lattice volume), and H's
		// determinant is positive by construction.
		da, dh := a.Det(), res.H.Det()
		if dh != da && dh != -da {
			return false
		}
		if dh <= 0 {
			return false
		}
		// A·probe is in the lattice of A, hence must be in the lattice of H.
		v := a.MulVec(NewVec(int64(probe[0]), int64(probe[1]), int64(probe[2])))
		_, ok := latticeSolve(res.H, v)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickHNFLatticeBothWays: every lattice point of H is a lattice point
// of A (solve A z = v rationally and check integrality).
func TestQuickHNFLatticeBothWays(t *testing.T) {
	f := func(s [9]byte, probe [3]int8) bool {
		a := randMat(3, s[:])
		if a.Det() == 0 {
			return true
		}
		res, err := HermiteNormalForm(a)
		if err != nil {
			return false
		}
		v := res.H.MulVec(NewVec(int64(probe[0]), int64(probe[1]), int64(probe[2])))
		for _, z := range ratMulVec(a.Inverse(), v.Rat()) {
			if !z.IsInt() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// isLowerTriangularHNF reports whether h satisfies the column-HNF shape
// HermiteNormalForm must produce:
// lower triangular, positive diagonal, and 0 ≤ h_kl < h_kk for l < k.
func isLowerTriangularHNF(h *Mat) bool {
	if h.Rows != h.Cols {
		return false
	}
	for k := 0; k < h.Rows; k++ {
		if h.At(k, k) <= 0 {
			return false
		}
		for l := 0; l < h.Cols; l++ {
			switch {
			case l > k && h.At(k, l) != 0:
				return false
			case l < k && (h.At(k, l) < 0 || h.At(k, l) >= h.At(k, k)):
				return false
			}
		}
	}
	return true
}

// latticeSolve solves H·z = v for a lower triangular H with nonzero
// diagonal by forward substitution. It returns (z, true) when v lies in the
// column lattice of H, and (nil, false) otherwise.
func latticeSolve(h *Mat, v Vec) (Vec, bool) {
	if h.Rows != h.Cols || len(v) != h.Rows {
		panic("ilin: latticeSolve shape mismatch")
	}
	n := h.Rows
	z := make(Vec, n)
	for k := 0; k < n; k++ {
		rem := v[k]
		for l := 0; l < k; l++ {
			rem -= h.At(k, l) * z[l]
		}
		d := h.At(k, k)
		if d == 0 || rem%d != 0 {
			return nil, false
		}
		z[k] = rem / d
	}
	return z, true
}
