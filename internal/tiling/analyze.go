package tiling

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"tilespace/internal/ilin"
	"tilespace/internal/loopnest"
	"tilespace/internal/poly"
	"tilespace/internal/rat"
)

// TiledSpace is a loop nest together with a legal tiling transformation and
// everything the code generator needs: the combined Fourier–Motzkin bounds
// for tile loops and (boundary-clamped) point loops, the transformed and
// tile-level dependencies, and the compile-time communication vector.
type TiledSpace struct {
	T    *Transform
	Nest *loopnest.Nest

	// Combined holds loop bounds over 2n variables (j^S_1…j^S_n,
	// z_1…z_n): levels 0…n-1 enumerate non-empty-relaxation tiles, levels
	// n…2n-1 enumerate a tile's lattice points with automatic boundary
	// clamping (§2.3: "for boundary tiles these bounds can be corrected
	// using inequalities describing the original iteration space").
	Combined *poly.NestBounds

	// TileLo/TileHi is the integer bounding box of the tile space J^S.
	TileLo, TileHi ilin.Vec

	// DP is D' = H'·D (all entries ≥ 0 for a legal tiling).
	DP *ilin.Mat
	// DS is the tile dependence matrix D^S as a sorted list of distinct
	// nonzero vectors; every component is 0 or 1 (validated).
	DS []ilin.Vec
	// MaxDP[k] = max_l d'_kl.
	MaxDP ilin.Vec
	// CC is the communication vector: cc_k = v_kk − MaxDP[k].
	CC ilin.Vec
}

// Analyze validates that h legally tiles the nest and precomputes the
// complete tiled-space description. Sizes come from outside the compiler,
// so arithmetic that leaves int64 is an *OverflowError, not a panic.
func Analyze(nest *loopnest.Nest, h *ilin.RatMat) (ts *TiledSpace, err error) {
	defer func() {
		if r := recover(); r != nil {
			o, ok := r.(rat.Overflow)
			if !ok {
				panic(r)
			}
			ts, err = nil, &OverflowError{o}
		}
	}()
	t, err := New(h)
	if err != nil {
		return nil, err
	}
	if t.N != nest.N {
		return nil, fmt.Errorf("tiling: H is %d-dimensional, nest is %d-dimensional", t.N, nest.N)
	}
	if !t.Legal(nest.Deps) {
		return nil, ErrIllegalTransform()
	}
	ts = &TiledSpace{T: t, Nest: nest}

	if err := ts.buildCombinedBounds(); err != nil {
		return nil, err
	}

	ts.DP = t.TransformedDeps(nest.Deps)
	ts.MaxDP = t.MaxDepPrime(nest.Deps)
	ts.CC = t.CommVector(nest.Deps)
	for k := 0; k < t.N; k++ {
		if ts.MaxDP[k] > t.V[k] {
			return nil, ErrDependenceReach(ts.MaxDP[k], int64(k), t.V[k])
		}
	}
	if err := ts.computeTileDeps(); err != nil {
		return nil, err
	}
	return ts, nil
}

// buildCombinedBounds constructs the 2n-variable system
//
//	A·(P·j^S + U·z) ≤ b        (original iteration space)
//	0 ≤ (H̃'·z)_k ≤ v_k − 1    (TTIS box)
//
// and runs Fourier–Motzkin once for both loop levels. The decomposition
// j = P·j^S + U·z is an exact integer bijection, so the z-level bounds
// enumerate exactly the original iterations of each tile.
func (ts *TiledSpace) buildCombinedBounds() error {
	n := ts.T.N
	sys := poly.NewSystem(2 * n)
	for _, c := range ts.Nest.Space.Cons {
		row := make(ilin.RatVec, 2*n)
		for j := 0; j < n; j++ {
			row[j] = c.Coef.Dot(ts.T.P.Col(j).Rat())
			row[n+j] = c.Coef.Dot(ts.T.U.Col(j).Rat())
		}
		sys.Add(poly.Constraint{Coef: row, Rhs: c.Rhs})
	}
	for k := 0; k < n; k++ {
		lo := make(ilin.RatVec, 2*n)
		for i := range lo {
			lo[i] = rat.Zero
		}
		hi := lo.Clone()
		for l := 0; l <= k; l++ {
			lo[n+l] = rat.FromInt(-ts.T.HT.At(k, l))
			hi[n+l] = rat.FromInt(ts.T.HT.At(k, l))
		}
		sys.Add(poly.Constraint{Coef: lo, Rhs: rat.Zero})                   // -(H̃'z)_k ≤ 0
		sys.Add(poly.Constraint{Coef: hi, Rhs: rat.FromInt(ts.T.V[k] - 1)}) // (H̃'z)_k ≤ v_k - 1
	}
	nb, err := poly.LoopBounds(sys)
	if err != nil {
		return fmt.Errorf("tiling: combined bounds: %w", err)
	}
	ts.Combined = nb

	lo, hi, err := poly.BoundingBox(sys)
	if err != nil {
		return fmt.Errorf("tiling: tile-space box: %w", err)
	}
	ts.TileLo, ts.TileHi = lo[:n], hi[:n]
	return nil
}

// TileBounds evaluates the tile-loop bounds at level k given the outer
// tile coordinates jS[0:k].
func (ts *TiledSpace) TileBounds(k int, prefix ilin.Vec) (lo, hi int64) {
	lo, _ = ts.Combined.Vars[k].EvalLower(prefix)
	hi, _ = ts.Combined.Vars[k].EvalUpper(prefix)
	return lo, hi
}

// ValidTile reports whether j^S is enumerated by the tile loops — the
// paper's valid() predicate. (A valid tile may still contain zero integer
// points when the rational relaxation is nonempty but holds no lattice
// point; such tiles run the communication protocol but compute nothing.)
func (ts *TiledSpace) ValidTile(jS ilin.Vec) bool {
	for k := 0; k < ts.T.N; k++ {
		lo, hi := ts.TileBounds(k, jS[:k])
		if jS[k] < lo || jS[k] > hi {
			return false
		}
	}
	return true
}

// scanBuf holds one scan's coordinates: x = (j^S, z) over the combined
// nest's 2n levels and jp = j'. Scans draw it from scanBufs, so a warm scan
// allocates nothing however many tiles, rows or points it visits; a scan
// nested in another's callback draws a buffer of its own.
type scanBuf struct {
	x, jp ilin.Vec
	count int64
}

var scanBufs = sync.Pool{New: func() any { return new(scanBuf) }}

func (ts *TiledSpace) getScanBuf() *scanBuf {
	n := ts.T.N
	b := scanBufs.Get().(*scanBuf)
	if cap(b.x) < 2*n {
		b.x, b.jp = make(ilin.Vec, 2*n), make(ilin.Vec, n)
	}
	b.x, b.jp, b.count = b.x[:2*n], b.jp[:n], 0
	return b
}

// ScanTiles enumerates all valid tiles in lexicographic order. fn receives
// a reusable buffer; returning false stops the scan. Returns the number of
// tiles visited.
func (ts *TiledSpace) ScanTiles(fn func(jS ilin.Vec) bool) int64 {
	b := ts.getScanBuf()
	defer scanBufs.Put(b)
	b.tiles(ts, 0, fn)
	return b.count
}

func (b *scanBuf) tiles(ts *TiledSpace, k int, fn func(jS ilin.Vec) bool) bool {
	n := ts.T.N
	if k == n {
		b.count++
		return fn(b.x[:n:n])
	}
	lo, hi := ts.TileBounds(k, b.x[:k])
	for v := lo; v <= hi; v++ {
		b.x[k] = v
		if !b.tiles(ts, k+1, fn) {
			return false
		}
	}
	return true
}

// pointBounds evaluates the clamped point-loop bounds of level n+k at the
// prefix x[:n+k] = (j^S, z_0 … z_{k-1}).
func (ts *TiledSpace) pointBounds(k int, x ilin.Vec) (lo, hi int64) {
	n := ts.T.N
	lo, okL := ts.Combined.Vars[n+k].EvalLower(x[:n+k])
	hi, okU := ts.Combined.Vars[n+k].EvalUpper(x[:n+k])
	if !okL || !okU {
		panic("tiling: unbounded point loop")
	}
	return lo, hi
}

// ScanTileRows enumerates tile j^S row by row: a row is one innermost
// segment of the clamped point loops — the outer lattice coordinates fixed,
// z_{n-1} running over count consecutive values — in lexicographic order of
// the outer coordinates. fn receives the row's first point as lattice
// coordinate z and TTIS coordinate j' = H̃'·z, in reusable buffers. Along a
// row j'_{n-1} advances by c_{n-1} and the global point by U·e_{n-1} per
// point. Empty segments are skipped. Returns the number of points covered.
func (ts *TiledSpace) ScanTileRows(jS ilin.Vec, fn func(z, jp ilin.Vec, count int64) bool) int64 {
	b := ts.getScanBuf()
	defer scanBufs.Put(b)
	copy(b.x, jS)
	b.rows(ts, 0, fn)
	return b.count
}

func (b *scanBuf) rows(ts *TiledSpace, k int, fn func(z, jp ilin.Vec, count int64) bool) bool {
	n := ts.T.N
	x := b.x
	lo, hi := ts.pointBounds(k, x)
	var base int64
	for l := 0; l < k; l++ {
		base += ts.T.HT.At(k, l) * x[n+l]
	}
	if k == n-1 {
		if hi < lo {
			return true
		}
		x[n+k] = lo
		b.jp[k] = base + ts.T.C[k]*lo
		b.count += hi - lo + 1
		return fn(x[n:], b.jp, hi-lo+1)
	}
	for zk := lo; zk <= hi; zk++ {
		x[n+k] = zk
		b.jp[k] = base + ts.T.C[k]*zk
		if !b.rows(ts, k+1, fn) {
			return false
		}
	}
	return true
}

// TotalPoints returns the total number of iterations across all tiles
// (equals the nest size; pinned by tests): the tiles' CountTilePoints, so a
// boundary tile costs its area, not its points.
func (ts *TiledSpace) TotalPoints() int64 {
	var total int64
	ts.ScanTiles(func(jS ilin.Vec) bool {
		total += ts.CountTilePoints(jS)
		return true
	})
	return total
}

// computeTileDeps derives D^S (tileDeps) and validates the {0,1} range the
// §3.2 communication scheme requires.
func (ts *TiledSpace) computeTileDeps() error {
	ts.DS = tileDeps(ts.T, ts.DP)
	for _, d := range ts.DS {
		for k := 0; k < ts.T.N; k++ {
			if d[k] < 0 || d[k] > 1 {
				return ErrTileDepRange(d, k)
			}
		}
		if !d.LexPositive() {
			return ErrTileDepNotLexPositive(d)
		}
	}
	return nil
}

// tileDeps returns D^S = {⌊H(j+d)⌋ : j ∈ TIS, d ∈ D} exactly, the distinct
// nonzero offsets in lexicographic order, by sweeping the TIS lattice (its
// size is the tile size) row by row with dp = D'. Along a row only
// j'_{n-1} moves, so of an offset ⌊(j' + d'_l)/v⌋ only the last component
// changes: each (row, dependence) pair is evaluated at its first point and
// then at each index where ⌊(j'_{n-1} + d'_{n-1,l})/v_{n-1}⌋ steps, found
// in closed form for any stride c_{n-1}.
func tileDeps(t *Transform, dp *ilin.Mat) []ilin.Vec {
	n := t.N
	last, c, v := n-1, t.C[n-1], t.V[n-1]
	// Chained under the vector hash (collisions resolved by Equal), so the
	// sweep allocates only per distinct offset instead of building a string
	// key per offset it meets.
	seen := map[uint64][]ilin.Vec{}
	off := make(ilin.Vec, n)
	t.ScanTTIS(func(z, jp ilin.Vec, count int64) bool {
		for l := 0; l < dp.Cols; l++ {
			for k := 0; k < last; k++ {
				off[k] = rat.FloorDiv(jp[k]+dp.At(k, l), t.V[k])
			}
			a := jp[last] + dp.At(last, l) // j'_{n-1} + d'_{n-1,l} at the row's first point
			for i := int64(0); i < count; i = rat.CeilDiv((off[last]+1)*v-a, c) {
				off[last] = rat.FloorDiv(a+i*c, v)
				if off.IsZero() {
					continue
				}
				key := ilin.VecHash(off)
				if !slices.ContainsFunc(seen[key], off.Equal) {
					seen[key] = append(seen[key], off.Clone())
				}
			}
		}
		return true
	})
	var ds []ilin.Vec
	for _, vs := range seen {
		ds = append(ds, vs...)
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i].LexLess(ds[j]) })
	return ds
}

// NumTiles returns the number of valid tiles.
func (ts *TiledSpace) NumTiles() int64 {
	return ts.ScanTiles(func(ilin.Vec) bool { return true })
}

// TileFullyInside reports whether the entire closed tile cell
// {x : j^S ≤ H·x ≤ j^S + 1} lies inside the iteration space, by testing
// its 2ⁿ vertices x = P·(j^S + ε), ε ∈ {0,1}ⁿ, against every constraint
// (sufficient by convexity). A fully inside tile contains exactly TileSize
// lattice points, so large simulations can skip per-point scans for
// interior tiles.
func (ts *TiledSpace) TileFullyInside(jS ilin.Vec) bool {
	n := ts.T.N
	b := ts.getScanBuf()
	defer scanBufs.Put(b)
	corner, x := b.x[:n], b.x[n:]
	for mask := 0; mask < 1<<n; mask++ {
		for k := 0; k < n; k++ {
			corner[k] = jS[k] + int64(mask>>k&1)
		}
		// x = P·corner: P is integral, so every vertex is an integer point.
		for k := 0; k < n; k++ {
			x[k] = 0
			for j := 0; j < n; j++ {
				x[k] += ts.T.P.At(k, j) * corner[j]
			}
		}
		for _, con := range ts.Nest.Space.Cons {
			if !con.SatisfiedBy(x) {
				return false
			}
		}
	}
	return true
}

// CountTilePoints counts the lattice points of tile j^S. It recurses over
// the outer lattice dimensions and closes the innermost level in O(1), so
// boundary tiles cost O(area) instead of O(volume) — what makes paper-scale
// simulation sweeps affordable.
func (ts *TiledSpace) CountTilePoints(jS ilin.Vec) int64 {
	b := ts.getScanBuf()
	defer scanBufs.Put(b)
	copy(b.x, jS)
	return b.points(ts, 0)
}

func (b *scanBuf) points(ts *TiledSpace, k int) int64 {
	n := ts.T.N
	lo, hi := ts.pointBounds(k, b.x)
	if hi < lo {
		return 0
	}
	if k == n-1 {
		return hi - lo + 1
	}
	var total int64
	for zk := lo; zk <= hi; zk++ {
		b.x[n+k] = zk
		total += b.points(ts, k+1)
	}
	return total
}
