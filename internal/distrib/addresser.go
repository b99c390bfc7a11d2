package distrib

import (
	"tilespace/internal/ilin"
	"tilespace/internal/rat"
)

// Addresser computes flat LDS indices for one processor rank without
// allocating — the execution hot path evaluates Map and the row-major
// flattening per dependence per iteration point.
type Addresser struct {
	n      int
	m      int
	off    ilin.Vec
	c, v   ilin.Vec
	shape  ilin.Vec
	stride ilin.Vec // row-major flattening strides
}

// Addresser returns the flat addresser for processor rank r.
func (d *Distribution) Addresser(r int) *Addresser {
	shape := d.LDSShape(r)
	n := len(shape)
	stride := make(ilin.Vec, n)
	s := int64(1)
	for k := n - 1; k >= 0; k-- {
		stride[k] = s
		s *= shape[k]
	}
	return &Addresser{
		n: n, m: d.M, off: d.Off.Clone(),
		c: d.TS.T.C.Clone(), v: d.TS.T.V.Clone(),
		shape: shape, stride: stride,
	}
}

// Size returns the number of LDS cells.
func (a *Addresser) Size() int64 { return a.stride[0] * a.shape[0] }

// ChainStep returns the flat-address increment per chain slot: because the
// distribution validates c_m | v_m, Flat(j', t) = Flat(j', 0) + t·ChainStep
// exactly — FloorDiv(t·v_m + x, c_m) = t·(v_m/c_m) + FloorDiv(x, c_m). The
// same step applies to FlatRead (in t) and to unpack cells (in tau, see
// DirShift). This is the strength-reduction identity compiled tile plans
// replay addresses with.
func (a *Addresser) ChainStep() int64 {
	return (a.v[a.m] / a.c[a.m]) * a.stride[a.m]
}

// DirShift returns the constant flat-address shift that turns a pack
// address into the matching unpack address for processor direction dmFull
// (the full-dimensional direction with 0 at the mapping dimension). The
// unpack cell of owner-tile point p' of a predecessor at chain offset tau
// is p' shifted by −v_k·dm_k on the non-mapping dimensions, and
//
//	unpack(p', dmFull, tau) = Flat(p', tau) + DirShift(dmFull)
//
// exactly, because c_k | v_k makes FloorDiv(p'_k − v_k·dm_k, c_k) =
// FloorDiv(p'_k, c_k) − (v_k/c_k)·dm_k. Receivers replay the sender-order
// run list shifted by this constant instead of addressing each point.
func (a *Addresser) DirShift(dmFull ilin.Vec) int64 {
	var shift int64
	for k := 0; k < a.n; k++ {
		if k == a.m {
			continue
		}
		shift -= (a.v[k] / a.c[k]) * dmFull[k] * a.stride[k]
	}
	return shift
}

// Flat returns the row-major index of Map(j', t): the flat cell of TTIS
// point j' in chain slot t.
func (a *Addresser) Flat(jp ilin.Vec, t int64) int64 {
	var idx int64
	for k := 0; k < a.n; k++ {
		var cell int64
		if k == a.m {
			cell = rat.FloorDiv(t*a.v[k]+jp[k], a.c[k]) + a.off[k]
		} else {
			cell = rat.FloorDiv(jp[k], a.c[k]) + a.off[k]
		}
		idx += cell * a.stride[k]
	}
	return idx
}

// FlatRead returns the flat cell a compute step reads for dependence d':
// the row-major index of Map(j' − d', t). Negative components land in the
// offset pads or earlier chain slots, exactly as the paper's map() does.
func (a *Addresser) FlatRead(jp, dp ilin.Vec, t int64) int64 {
	var idx int64
	for k := 0; k < a.n; k++ {
		x := jp[k] - dp[k]
		var cell int64
		if k == a.m {
			cell = rat.FloorDiv(t*a.v[k]+x, a.c[k]) + a.off[k]
		} else {
			cell = rat.FloorDiv(x, a.c[k]) + a.off[k]
		}
		idx += cell * a.stride[k]
	}
	return idx
}
