// Package tiling implements the paper's central machinery: general
// parallelepiped tiling transformations H, the non-unimodular companion
// transformation H' = V·H that turns the tile into a rectangle, the
// Hermite-normal-form-derived strides and offsets that traverse the
// Transformed Tile Iteration Space (TTIS), tile-space loop bounds via
// Fourier–Motzkin, tile dependencies D^S, and the compile-time
// communication criteria (the CC vector of §3.2).
package tiling

import (
	"fmt"
	"strings"

	"tilespace/internal/ilin"
	"tilespace/internal/rat"
)

// Transform is a validated tiling transformation.
//
// H's rows are the hyperplane normals; P = H⁻¹ holds the tile side-vectors
// as columns (integral, so tile corners fall on lattice points, as in all
// the paper's experiment matrices). V is the minimal positive diagonal
// making H' = V·H integral; H̃' = H'·U is the column-style Hermite normal
// form whose diagonal gives the TTIS traversal strides c_k and whose
// sub-diagonal entries give the incremental offsets a_kl (paper Fig. 2).
type Transform struct {
	N int

	H  *ilin.RatMat // n×n tiling matrix
	P  *ilin.Mat    // P = H⁻¹, integer side-vector matrix
	V  ilin.Vec     // diagonal of V
	HP *ilin.Mat    // H' = V·H, integer
	PP *ilin.RatMat // P' = H'⁻¹
	HT *ilin.Mat    // H̃', column HNF of H'
	U  *ilin.Mat    // unimodular, H'·U = H̃' (and P'·H̃' = U)
	C  ilin.Vec     // strides c_k = h̃'_kk

	// TileSize is |det P|, the number of iterations per full tile.
	TileSize int64
}

// New validates H and precomputes every derived matrix. Errors cover:
// non-square or singular H, and non-integral P = H⁻¹.
func New(h *ilin.RatMat) (*Transform, error) {
	if h.Rows != h.Cols {
		return nil, fmt.Errorf("tiling: H must be square, got %dx%d", h.Rows, h.Cols)
	}
	n := h.Rows
	det := h.Det()
	if det.IsZero() {
		return nil, fmt.Errorf("tiling: H is singular")
	}
	pRat := h.Inverse()
	if !pRat.IsInt() {
		return nil, fmt.Errorf("tiling: P = H⁻¹ must be integral (tile corners on the lattice); got\n%v", pRat)
	}
	p := pRat.Int()

	// v_kk = lcm of the denominators of row k of H.
	v := make(ilin.Vec, n)
	for k := 0; k < n; k++ {
		l := int64(1)
		for j := 0; j < n; j++ {
			l = rat.Lcm64(l, h.At(k, j).Den)
		}
		v[k] = l
	}
	hpRat := ilin.NewRatMat(n, n)
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			hpRat.Set(k, j, h.At(k, j).MulInt(v[k]))
		}
	}
	hp := hpRat.Int()
	hnf, err := ilin.HermiteNormalForm(hp)
	if err != nil {
		return nil, fmt.Errorf("tiling: HNF of H': %w", err)
	}
	c := make(ilin.Vec, n)
	for k := 0; k < n; k++ {
		c[k] = hnf.H.At(k, k)
	}
	size := p.Det()
	if size < 0 {
		size = -size
	}
	t := &Transform{
		N: n, H: h.Clone(), P: p, V: v,
		HP: hp, PP: hp.Inverse(), HT: hnf.H, U: hnf.U, C: c,
		TileSize: size,
	}
	return t, nil
}

// FromP builds the transformation from the integer side-vector matrix P
// (columns are tile edges), computing H = P⁻¹.
func FromP(p *ilin.Mat) (*Transform, error) {
	if p.Rows != p.Cols {
		return nil, fmt.Errorf("tiling: P must be square, got %dx%d", p.Rows, p.Cols)
	}
	if p.Det() == 0 {
		return nil, fmt.Errorf("tiling: P is singular")
	}
	return New(p.Inverse())
}

// Rectangular returns the diagonal tiling H_r = diag(1/s_1, …, 1/s_n) with
// tile extents s_k, the baseline the paper compares against.
func Rectangular(sizes ...int64) (*Transform, error) {
	h := ilin.NewRatMat(len(sizes), len(sizes))
	for k, s := range sizes {
		if s <= 0 {
			return nil, fmt.Errorf("tiling: tile extent %d must be positive, got %d", k, s)
		}
		h.Set(k, k, rat.New(1, s))
	}
	return New(h)
}

// TileOf returns j^S = ⌊H·j⌋, the tile containing iteration j. Computed as
// FloorDiv((H'·j)_k, v_k) to stay in integer arithmetic.
func (t *Transform) TileOf(j ilin.Vec) ilin.Vec {
	hj := t.HP.MulVec(j)
	out := make(ilin.Vec, t.N)
	for k := 0; k < t.N; k++ {
		out[k] = rat.FloorDiv(hj[k], t.V[k])
	}
	return out
}

// TTISCoord returns j' = H'·(j − P·j^S), the coordinates of iteration j
// inside its tile's transformed (rectangular) space. For j in tile j^S,
// every component lies in [0, v_k).
func (t *Transform) TTISCoord(j, jS ilin.Vec) ilin.Vec {
	return t.HP.MulVec(j.Sub(t.P.MulVec(jS)))
}

// Global returns j = P·j^S + U·z for a tile j^S and TTIS lattice
// coordinate z (where j' = H̃'·z). This is the paper's j = P·j^S + P'·j'
// specialized to lattice points: P'·j' = P'·H̃'·z = U·z, all-integer.
func (t *Transform) Global(jS, z ilin.Vec) ilin.Vec {
	return t.P.MulVec(jS).Add(t.U.MulVec(z))
}

// ScanTTIS enumerates the TTIS — the iteration points of one full tile in
// transformed coordinates — row by row, as ScanTileRows does a clamped
// tile: a row is the innermost lattice coordinate z_{n-1} running over
// count consecutive values with the outer coordinates fixed, and the rows
// come in lexicographic order of z. Along a row j'_{n-1} advances by c_{n-1}
// per point. fn receives the row's first point as z and j' = H̃'·z in
// reusable buffers; returning false stops the scan. The points covered are
// returned: TileSize for a full scan.
func (t *Transform) ScanTTIS(fn func(z, jp ilin.Vec, count int64) bool) int64 {
	z := make(ilin.Vec, t.N)
	jp := make(ilin.Vec, t.N)
	var total int64
	var rec func(k int) bool
	rec = func(k int) bool {
		// j'_k = base + c_k·z_k with base from outer lattice coordinates.
		var base int64
		for l := 0; l < k; l++ {
			base += t.HT.At(k, l) * z[l]
		}
		zlo := rat.CeilDiv(-base, t.C[k])
		zhi := rat.FloorDiv(t.V[k]-1-base, t.C[k])
		if k == t.N-1 {
			if zhi < zlo {
				return true
			}
			z[k], jp[k] = zlo, base+t.C[k]*zlo
			total += zhi - zlo + 1
			return fn(z, jp, zhi-zlo+1)
		}
		for zk := zlo; zk <= zhi; zk++ {
			z[k] = zk
			jp[k] = base + t.C[k]*zk
			if !rec(k + 1) {
				return false
			}
		}
		return true
	}
	rec(0)
	return total
}

// TransformedDeps returns D' = H'·D, the dependence vectors expressed in
// TTIS coordinates. For a legal tiling every entry is ≥ 0.
func (t *Transform) TransformedDeps(d *ilin.Mat) *ilin.Mat {
	return t.HP.Mul(d)
}

// Legal reports whether H·D ≥ 0 elementwise — the classical legality
// condition guaranteeing that tiles can execute atomically.
func (t *Transform) Legal(d *ilin.Mat) bool {
	hd := t.HP.Mul(d) // same sign pattern as H·D since V > 0
	for i := 0; i < hd.Rows; i++ {
		for j := 0; j < hd.Cols; j++ {
			if hd.At(i, j) < 0 {
				return false
			}
		}
	}
	return true
}

// MaxDepPrime returns per-dimension max_l d'_kl (taken as 0 when there are
// no dependencies) — the quantity the communication vector and LDS offsets
// are built from.
func (t *Transform) MaxDepPrime(d *ilin.Mat) ilin.Vec {
	dp := t.TransformedDeps(d)
	out := make(ilin.Vec, t.N)
	for k := 0; k < t.N; k++ {
		for l := 0; l < dp.Cols; l++ {
			if dp.At(k, l) > out[k] {
				out[k] = dp.At(k, l)
			}
		}
	}
	return out
}

// CommVector returns the paper's C⃗C: cc_k = v_kk − max_l(d'_kl). A TTIS
// point j' is a communication point along dimension k iff j'_k ≥ cc_k.
func (t *Transform) CommVector(d *ilin.Mat) ilin.Vec {
	md := t.MaxDepPrime(d)
	out := make(ilin.Vec, t.N)
	for k := 0; k < t.N; k++ {
		out[k] = t.V[k] - md[k]
	}
	return out
}

// String renders the complete analysis of the transformation.
func (t *Transform) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "H =\n%v\n", t.H)
	fmt.Fprintf(&b, "P = H⁻¹ =\n%v\n", t.P)
	fmt.Fprintf(&b, "V = diag%v\n", t.V)
	fmt.Fprintf(&b, "H' = V·H =\n%v\n", t.HP)
	fmt.Fprintf(&b, "H̃' (HNF) =\n%v\n", t.HT)
	fmt.Fprintf(&b, "strides c = %v\n", t.C)
	fmt.Fprintf(&b, "tile size |det P| = %d", t.TileSize)
	return b.String()
}
