package ilin

import (
	"fmt"

	"tilespace/internal/rat"
)

// HNFResult is the column-style Hermite Normal Form of a nonsingular integer
// matrix A: a unimodular matrix U such that H = A·U is lower triangular with
// strictly positive diagonal entries and 0 ≤ h_kl < h_kk for l < k.
//
// The column lattice of H equals the column lattice of A, which is exactly
// the property the tiling framework relies on: the transformed tile space
// TTIS is the lattice H'·Zⁿ, and its HNF yields the loop strides
// c_k = h̃'_kk and incremental offsets a_kl = h̃'_kl of the paper's Figure 2.
type HNFResult struct {
	H *Mat // the Hermite normal form, lower triangular
	U *Mat // unimodular witness with A·U == H
}

// HermiteNormalForm computes the column-style HNF of a square nonsingular
// integer matrix. It returns an error if the matrix is not square or is
// singular.
func HermiteNormalForm(a *Mat) (*HNFResult, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("ilin: HNF requires a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	n := a.Rows
	h := a.Clone()
	u := Identity(n)

	for k := 0; k < n; k++ {
		// Use extended-gcd column combinations to concentrate the gcd of
		// row k (over columns ≥ k) into column k and zero the rest.
		for j := k + 1; j < n; j++ {
			if h.At(k, j) == 0 {
				continue
			}
			akk, akj := h.At(k, k), h.At(k, j)
			g, x, y := rat.ExtGcd(akk, akj)
			// The 2×2 column transform [x  -akj/g; y  akk/g] has
			// determinant (x·akk + y·akj)/g = 1, so it is unimodular.
			p, q := akj/g, akk/g
			combineCols(h, k, j, x, y, -p, q)
			combineCols(u, k, j, x, y, -p, q)
		}
		if h.At(k, k) == 0 {
			return nil, fmt.Errorf("ilin: HNF of singular matrix (leading %d×%d minor is rank deficient)", k+1, k+1)
		}
		if h.At(k, k) < 0 {
			negateCol(h, k)
			negateCol(u, k)
		}
		// Reduce the entries left of the diagonal into [0, h_kk). Column k
		// has zeros above row k, so this cannot disturb finished rows.
		diag := h.At(k, k)
		for l := 0; l < k; l++ {
			q := rat.FloorDiv(h.At(k, l), diag)
			if q == 0 {
				continue
			}
			addColMultiple(h, l, k, -q)
			addColMultiple(u, l, k, -q)
		}
	}
	return &HNFResult{H: h, U: u}, nil
}

// combineCols applies the 2×2 column transform
//
//	col_i' = a·col_i + b·col_j
//	col_j' = c·col_i + d·col_j
//
// simultaneously (reading the original columns).
func combineCols(m *Mat, i, j int, a, b, c, d int64) {
	for r := 0; r < m.Rows; r++ {
		ci, cj := m.At(r, i), m.At(r, j)
		m.Set(r, i, a*ci+b*cj)
		m.Set(r, j, c*ci+d*cj)
	}
}

func negateCol(m *Mat, j int) {
	for r := 0; r < m.Rows; r++ {
		m.Set(r, j, -m.At(r, j))
	}
}

func addColMultiple(m *Mat, dst, src int, mult int64) {
	for r := 0; r < m.Rows; r++ {
		m.Set(r, dst, m.At(r, dst)+mult*m.At(r, src))
	}
}
