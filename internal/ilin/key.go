package ilin

// Allocation-free map keys for integer vectors.
//
// The executor's hot path used to key caches by Vec.String(), which
// allocates on every probe. Two cheaper schemes replace it:
//
//   - BoxIndexer: a *perfect* integer key for vectors known to lie in a
//     fixed box (tile coordinates inside the tile-space bounding box) —
//     the row-major linear index, collision-free by construction.
//   - VecHash/HashInt64s: FNV-1a over the raw int64 components for
//     vectors or flattened point lists with no useful a-priori bounds
//     (plan-cache keys). Hash users must verify equality on hit; the
//     helpers here only make the probe allocation-free.

// fnvOffset64 and fnvPrime64 are the standard FNV-1a parameters.
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// HashSeed returns the initial FNV-1a state.
func HashSeed() uint64 { return fnvOffset64 }

// HashInt64 folds one int64 into an FNV-1a state byte by byte.
func HashInt64(h uint64, x int64) uint64 {
	u := uint64(x)
	for i := 0; i < 8; i++ {
		h ^= u & 0xff
		h *= fnvPrime64
		u >>= 8
	}
	return h
}

// HashInt64s folds a slice of int64 into an FNV-1a state.
func HashInt64s(h uint64, xs []int64) uint64 {
	for _, x := range xs {
		h = HashInt64(h, x)
	}
	return h
}

// VecHash returns the FNV-1a hash of v's components (length included, so
// prefixes hash differently from their extensions).
func VecHash(v Vec) uint64 {
	h := HashInt64(fnvOffset64, int64(len(v)))
	return HashInt64s(h, v)
}

// BoxIndexer maps vectors inside the box [Lo, Hi] to distinct linear
// indices in [0, Size) — a perfect, allocation-free map key.
type BoxIndexer struct {
	Lo     Vec
	Hi     Vec
	stride []int64
	size   int64
}

// NewBoxIndexer builds the row-major indexer for the box [lo, hi]
// (inclusive on both ends; hi[k] ≥ lo[k] required).
func NewBoxIndexer(lo, hi Vec) BoxIndexer {
	if len(lo) != len(hi) {
		panic("ilin: BoxIndexer bounds length mismatch")
	}
	n := len(lo)
	stride := make([]int64, n)
	size := int64(1)
	for k := n - 1; k >= 0; k-- {
		if hi[k] < lo[k] {
			panic("ilin: empty BoxIndexer box")
		}
		stride[k] = size
		size *= hi[k] - lo[k] + 1
	}
	return BoxIndexer{Lo: lo.Clone(), Hi: hi.Clone(), stride: stride, size: size}
}

// Size returns the number of cells in the box.
func (b BoxIndexer) Size() int64 { return b.size }

// Index returns v's linear index; ok is false when v falls outside the
// box (callers typically treat such vectors as cache misses).
func (b BoxIndexer) Index(v Vec) (int64, bool) {
	var idx int64
	for k := range v {
		if v[k] < b.Lo[k] || v[k] > b.Hi[k] {
			return 0, false
		}
		idx += (v[k] - b.Lo[k]) * b.stride[k]
	}
	return idx, true
}

// IndexOmit is Index of v with coordinate m removed, for a box with one
// dimension fewer than v; it allocates nothing.
func (b BoxIndexer) IndexOmit(v Vec, m int) (int64, bool) {
	var idx int64
	for k := range b.Lo {
		x := v[k]
		if k >= m {
			x = v[k+1]
		}
		if x < b.Lo[k] || x > b.Hi[k] {
			return 0, false
		}
		idx += (x - b.Lo[k]) * b.stride[k]
	}
	return idx, true
}
