// Package distrib implements the paper's §3.1 computation and data
// distribution: tiles are mapped to an (n−1)-dimensional processor mesh by
// collapsing the mapping dimension m (chosen as the dimension with the
// maximum number of tiles, per the UET-UCT optimality result [3]); each
// processor executes its chain of tiles in sequence and owns a dense
// rectangular Local Data Space (LDS) addressed through the map()/map⁻¹()
// and loc()/loc⁻¹() functions of Tables 1–2.
package distrib

import (
	"fmt"
	"slices"
	"sort"

	"tilespace/internal/ilin"
	"tilespace/internal/rat"
	"tilespace/internal/tiling"
)

// Distribution assigns every tile of a tiled space to a processor and lays
// out each processor's LDS.
type Distribution struct {
	TS *tiling.TiledSpace
	// M is the 0-based mapping dimension: tiles differing only in j^S_m
	// run on the same processor.
	M int

	// Off holds the paper's LDS offsets: Off[k] = ⌈maxd'_k / c_k⌉ for
	// k ≠ m (space for received data), Off[m] = v_m/c_m (space for the
	// initial chain boundary).
	Off ilin.Vec

	// Pids lists the processor identifiers — the (n−1)-dimensional tile
	// coordinates with dimension m removed — in lexicographic order; the
	// index of a pid in this list is its rank.
	Pids []ilin.Vec

	// ChainStart[r] and ChainLen[r] describe processor r's tile chain:
	// tiles j^S with j^S_m = ChainStart[r] … ChainStart[r]+ChainLen[r]−1.
	ChainStart []int64
	ChainLen   []int64

	// DM is the set of processor dependencies D^m: the distinct nonzero
	// projections of D^S onto the non-mapping dimensions.
	DM []ilin.Vec

	// pidBox indexes the pid box — the tile-space box with dimension M
	// dropped — in row-major, hence lexicographic, order; rankOf[i] is the
	// rank of the pid with index i, −1 for a cell no tile maps to.
	pidBox ilin.BoxIndexer
	rankOf []int32
	// dsDir[i] is the index into DM of tile dependence i's projection, −1
	// when it projects to zero (the dependence stays on one processor).
	dsDir []int

	// proto is the compiled §3.2 protocol (protocol.go), built lazily; a
	// Distribution must not be copied once anything has read it.
	proto Protocol
}

// ChooseMappingDim returns the dimension with the maximum number of tiles,
// the paper's mapping heuristic (map the longest chain onto one processor
// so the (n−1)-D mesh is as small as the problem allows).
func ChooseMappingDim(ts *tiling.TiledSpace) int {
	best, bestLen := 0, int64(-1)
	for k := 0; k < ts.T.N; k++ {
		if l := ts.TileHi[k] - ts.TileLo[k] + 1; l > bestLen {
			best, bestLen = k, l
		}
	}
	return best
}

// New builds the distribution for mapping dimension m. Errors cover: m out
// of range, stride/extent divisibility violations (the LDS addressing of
// §3.1 requires c_k | v_k), and non-contiguous tile chains (impossible for
// convex spaces; checked defensively).
func New(ts *tiling.TiledSpace, m int) (*Distribution, error) {
	n := ts.T.N
	if m < 0 || m >= n {
		return nil, fmt.Errorf("distrib: mapping dimension %d out of range [0, %d)", m, n)
	}
	for k := 0; k < n; k++ {
		if ts.T.V[k]%ts.T.C[k] != 0 {
			return nil, fmt.Errorf("distrib: stride c_%d = %d does not divide tile extent v_%d = %d; LDS addressing needs c_k | v_k", k+1, ts.T.C[k], k+1, ts.T.V[k])
		}
	}
	d := &Distribution{TS: ts, M: m}

	d.Off = make(ilin.Vec, n)
	for k := 0; k < n; k++ {
		if k == m {
			d.Off[k] = ts.T.V[k] / ts.T.C[k]
		} else {
			d.Off[k] = rat.CeilDiv(ts.MaxDP[k], ts.T.C[k])
		}
	}

	// Group tiles by pid, collecting each chain's m-range in a table over
	// the pid box (an empty tile space still gets a one-cell box).
	lo, hi := projectOut(ts.TileLo, m), projectOut(ts.TileHi, m)
	for k := range hi {
		hi[k] = max(hi[k], lo[k])
	}
	d.pidBox = ilin.NewBoxIndexer(lo, hi)
	type chain struct {
		pid      ilin.Vec
		min, max int64
		count    int64
	}
	chains := make([]chain, d.pidBox.Size())
	ts.ScanTiles(func(jS ilin.Vec) bool {
		i, ok := d.pidBox.IndexOmit(jS, m)
		if !ok {
			panic(fmt.Sprintf("distrib: tile %v lies outside the tile-space box [%v, %v]", jS, ts.TileLo, ts.TileHi))
		}
		c := &chains[i]
		if c.count == 0 {
			c.pid, c.min, c.max = projectOut(jS, m), jS[m], jS[m]
		}
		c.min, c.max = min(c.min, jS[m]), max(c.max, jS[m])
		c.count++
		return true
	})
	d.rankOf = make([]int32, len(chains))
	for i := range chains {
		c := &chains[i]
		if c.count == 0 {
			d.rankOf[i] = -1
			continue
		}
		if c.count != c.max-c.min+1 {
			return nil, fmt.Errorf("distrib: tile chain of processor %v is not contiguous (%d tiles over [%d, %d])", c.pid, c.count, c.min, c.max)
		}
		d.rankOf[i] = int32(len(d.Pids))
		d.Pids = append(d.Pids, c.pid)
		d.ChainStart = append(d.ChainStart, c.min)
		d.ChainLen = append(d.ChainLen, c.count)
	}

	// Processor dependencies D^m: distinct nonzero projections of D^S.
	for _, dS := range ts.DS {
		if dm := d.dmOf(dS); !dm.IsZero() && !slices.ContainsFunc(d.DM, dm.Equal) {
			d.DM = append(d.DM, dm)
		}
	}
	sort.Slice(d.DM, func(i, j int) bool { return d.DM[i].LexLess(d.DM[j]) })
	d.dsDir = make([]int, len(ts.DS))
	for i, dS := range ts.DS {
		d.dsDir[i] = slices.IndexFunc(d.DM, d.dmOf(dS).Equal)
	}
	return d, nil
}

// projectOut removes coordinate m from v.
func projectOut(v ilin.Vec, m int) ilin.Vec {
	out := make(ilin.Vec, 0, len(v)-1)
	out = append(out, v[:m]...)
	return append(out, v[m+1:]...)
}

// insertAt re-inserts coordinate m with value x.
func insertAt(v ilin.Vec, m int, x int64) ilin.Vec {
	out := make(ilin.Vec, 0, len(v)+1)
	out = append(out, v[:m]...)
	out = append(out, x)
	return append(out, v[m:]...)
}

// NumProcs returns the number of processors (mesh cells with ≥ 1 tile).
func (d *Distribution) NumProcs() int { return len(d.Pids) }

// Rank returns the linear rank of a pid; ok is false for pids with no
// tiles.
func (d *Distribution) Rank(pid ilin.Vec) (int, bool) {
	if len(pid) != len(d.pidBox.Lo) {
		return 0, false
	}
	i, ok := d.pidBox.Index(pid)
	return d.rankAt(i, ok)
}

// RankOfTile returns the rank executing tile j^S. It indexes the rank table
// with j^S's mapping coordinate skipped, so it allocates nothing.
func (d *Distribution) RankOfTile(jS ilin.Vec) (int, bool) {
	i, ok := d.pidBox.IndexOmit(jS, d.M)
	return d.rankAt(i, ok)
}

func (d *Distribution) rankAt(i int64, inBox bool) (int, bool) {
	if !inBox || d.rankOf[i] < 0 {
		return 0, false
	}
	return int(d.rankOf[i]), true
}

// TileAt reconstructs the tile j^S of processor rank r at chain position t
// (t = 0 is the processor's first tile).
func (d *Distribution) TileAt(r int, t int64) ilin.Vec {
	return insertAt(d.Pids[r], d.M, d.ChainStart[r]+t)
}

// dmOf projects a tile dependence to its processor dependence.
func (d *Distribution) dmOf(dS ilin.Vec) ilin.Vec { return projectOut(dS, d.M) }

// MinSucc returns the paper's minsucc(s, d^m) for d^m = DM[dir]: the
// lexicographically minimum valid successor tile of s in that processor
// direction, i.e. the tile that performs the (single) receive of s's
// message along it. The successor is returned as the index ds of the tile
// dependence that reaches it, minsucc = s + TS.DS[ds]; ok is false when no
// valid successor exists. MinSucc allocates nothing: candidates are built
// in one stack buffer and filtered through the per-dependence dsDir table.
func (d *Distribution) MinSucc(s ilin.Vec, dir int) (ds int, ok bool) {
	var buf [8]int64
	succ := buf[:0]
	if len(s) > len(buf) {
		succ = make(ilin.Vec, 0, len(s))
	}
	succ = succ[:len(s)]
	ds = -1
	for i, dS := range d.TS.DS {
		// s + a <lex s + b exactly when a <lex b: compare the dependences.
		if d.dsDir[i] != dir || (ds >= 0 && !dS.LexLess(d.TS.DS[ds])) {
			continue
		}
		for k := range succ {
			succ[k] = s[k] + dS[k]
		}
		if d.TS.ValidTile(succ) {
			ds = i
		}
	}
	return ds, ds >= 0
}

// LDSShape returns the per-dimension extents of processor r's Local Data
// Space: Off[k] + v_k/c_k for k ≠ m, and Off[m] + |chain|·v_m/c_m for the
// mapping dimension (Figure 3).
func (d *Distribution) LDSShape(r int) ilin.Vec {
	n := d.TS.T.N
	shape := make(ilin.Vec, n)
	for k := 0; k < n; k++ {
		per := d.TS.T.V[k] / d.TS.T.C[k]
		if k == d.M {
			shape[k] = d.Off[k] + d.ChainLen[r]*per
		} else {
			shape[k] = d.Off[k] + per
		}
	}
	return shape
}

// LDSSize returns the number of cells in processor r's LDS.
func (d *Distribution) LDSSize(r int) int64 {
	size := int64(1)
	for _, s := range d.LDSShape(r) {
		size *= s
	}
	return size
}

// Map is the paper's map(j', t): the LDS cell storing the computation of
// TTIS point j' of the t-th tile in a processor's chain. Floor division
// condenses the TTIS lattice (stride c_k) into dense cells; negative
// arguments (reads of received or initial data, j' − d') land in the
// offset pad.
func (d *Distribution) Map(jp ilin.Vec, t int64) ilin.Vec {
	n := d.TS.T.N
	out := make(ilin.Vec, n)
	for k := 0; k < n; k++ {
		if k == d.M {
			out[k] = rat.FloorDiv(t*d.TS.T.V[k]+jp[k], d.TS.T.C[k]) + d.Off[k]
		} else {
			out[k] = rat.FloorDiv(jp[k], d.TS.T.C[k]) + d.Off[k]
		}
	}
	return out
}

// MapInverse inverts Map for cells in the computation region: given an LDS
// cell j” it returns the chain position t and the TTIS point j'. The
// reconstruction walks the Hermite form H̃' top-down, recovering each
// lattice coordinate and the stride remainders the paper's Table 2
// expresses with modulo sums. ok is false for cells that correspond to no
// lattice point (padding or unused cells).
func (d *Distribution) MapInverse(jpp ilin.Vec) (t int64, jp ilin.Vec, ok bool) {
	n := d.TS.T.N
	ht := d.TS.T.HT
	c := d.TS.T.C
	v := d.TS.T.V
	jp = make(ilin.Vec, n)
	z := make(ilin.Vec, n)
	for k := 0; k < n; k++ {
		var base int64
		for l := 0; l < k; l++ {
			base += ht.At(k, l) * z[l]
		}
		rem := rat.Mod(base, c[k])
		if k == d.M {
			x := c[k]*(jpp[k]-d.Off[k]) + rem
			t = rat.FloorDiv(x, v[k])
			jp[k] = x - t*v[k]
		} else {
			jp[k] = c[k]*(jpp[k]-d.Off[k]) + rem
		}
		if jp[k] < 0 || jp[k] >= v[k] {
			return 0, nil, false
		}
		z[k] = (jp[k] - base) / c[k]
	}
	return t, jp, true
}

// Loc is the paper's loc(j) (Table 1): the processor rank and LDS cell
// where iteration j's result is stored.
func (d *Distribution) Loc(j ilin.Vec) (rank int, jpp ilin.Vec, err error) {
	jS := d.TS.T.TileOf(j)
	r, ok := d.RankOfTile(jS)
	if !ok {
		return 0, nil, fmt.Errorf("distrib: iteration %v falls in unassigned tile %v", j, jS)
	}
	jp := d.TS.T.TTISCoord(j, jS)
	t := jS[d.M] - d.ChainStart[r]
	return r, d.Map(jp, t), nil
}

// LocInverse is the paper's loc⁻¹(j”, pid) (Table 2): the original
// iteration whose result lives in cell j” of processor rank r. ok is
// false for pad/unused cells.
func (d *Distribution) LocInverse(r int, jpp ilin.Vec) (ilin.Vec, bool) {
	t, jp, ok := d.MapInverse(jpp)
	if !ok {
		return nil, false
	}
	if t < 0 || t >= d.ChainLen[r] {
		return nil, false
	}
	jS := d.TileAt(r, t)
	z, ok := d.TS.T.ZOf(jp)
	if !ok {
		return nil, false
	}
	return d.TS.T.Global(jS, z), true
}

// Flatten converts a multi-dimensional LDS cell to a linear index for
// processor r's backing array, row-major.
func (d *Distribution) Flatten(r int, jpp ilin.Vec) int64 {
	shape := d.LDSShape(r)
	var idx int64
	for k := 0; k < len(shape); k++ {
		if jpp[k] < 0 || jpp[k] >= shape[k] {
			panic(fmt.Sprintf("distrib: LDS cell %v outside shape %v (rank %d)", jpp, shape, r))
		}
		idx = idx*shape[k] + jpp[k]
	}
	return idx
}

// String summarizes the distribution.
func (d *Distribution) String() string {
	return fmt.Sprintf("distrib: m=%d, %d processors, offsets %v, %d processor deps", d.M+1, d.NumProcs(), d.Off, len(d.DM))
}

// CommRegion enumerates the communication points of tile s along processor
// direction d^m: the (boundary-clamped) lattice points of s whose TTIS
// coordinate satisfies j'_k ≥ cc_k on every non-mapping dimension where
// d^m is 1 (§3.2). Sender pack, receiver unpack and the simulator all
// evaluate this identically, so message contents pair up by construction.
// fn may be nil to just count.
func (d *Distribution) CommRegion(s, dm ilin.Vec, fn func(z, jp ilin.Vec) bool) int64 {
	cc := d.TS.CC
	var count int64
	d.TS.ScanTilePoints(s, func(z, jp ilin.Vec) bool {
		idx := 0
		for k := 0; k < d.TS.T.N; k++ {
			if k == d.M {
				continue
			}
			if dm[idx] == 1 && jp[k] < cc[k] {
				return true
			}
			idx++
		}
		count++
		if fn != nil {
			return fn(z, jp)
		}
		return true
	})
	return count
}

// FullTileCommCount returns the communication-region size of a tile that
// is fully inside the iteration space — a tile-independent constant per
// direction, so large simulations can cache it.
func (d *Distribution) FullTileCommCount(dm ilin.Vec) int64 {
	cc := d.TS.CC
	var count int64
	d.TS.T.ScanTTIS(func(z, jp ilin.Vec) bool {
		idx := 0
		for k := 0; k < d.TS.T.N; k++ {
			if k == d.M {
				continue
			}
			if dm[idx] == 1 && jp[k] < cc[k] {
				return true
			}
			idx++
		}
		count++
		return true
	})
	return count
}

// HasSuccessor reports whether tile s has at least one valid successor
// tile in processor direction DM[dir] (the paper's send condition).
func (d *Distribution) HasSuccessor(s ilin.Vec, dir int) bool {
	_, ok := d.MinSucc(s, dir)
	return ok
}

// CommRegionCount counts the §3.2 communication region of tile s along
// d^m without enumerating the innermost loop (closed form via
// tiling.CountTilePoints); always equals CommRegion(s, dm, nil).
func (d *Distribution) CommRegionCount(s, dm ilin.Vec) int64 {
	var buf [8]int64
	minJP := buf[:0]
	if d.TS.T.N > len(buf) {
		minJP = make(ilin.Vec, 0, d.TS.T.N)
	}
	minJP = minJP[:d.TS.T.N]
	clear(minJP)
	idx := 0
	for k := 0; k < d.TS.T.N; k++ {
		if k == d.M {
			continue
		}
		if dm[idx] == 1 {
			minJP[k] = d.TS.CC[k]
		}
		idx++
	}
	return d.TS.CountTilePoints(s, minJP)
}

// MapInversePaper is the literal Table 2 map⁻¹ formula of the paper:
//
//	t    = (j''_m − off_m)·c_m / v_m
//	j'_k = c_k·(j''_k − off_k) + (Σ_{l<k} h̃'_kl·j'_l) mod c_k   (k ≠ m)
//	j'_m = c_m·(j''_m − off_m) − t·v_m + (Σ_{l<m} h̃'_ml·j'_l) mod c_m
//
// using previously recovered j'_l values (not lattice coordinates) inside
// the modulo sums. MapInverse recovers the strides' remainders through the
// lattice coordinates instead; the two agree on every computation cell
// (pinned by tests), because modulo c_k the Hermite column relations make
// Σ h̃'_kl·j'_l ≡ Σ h̃'_kl·z_l. Kept as a faithful reference.
func (d *Distribution) MapInversePaper(jpp ilin.Vec) (t int64, jp ilin.Vec) {
	n := d.TS.T.N
	ht := d.TS.T.HT
	c := d.TS.T.C
	v := d.TS.T.V
	jp = make(ilin.Vec, n)
	// The paper evaluates t first from the mapping coordinate alone.
	t = rat.FloorDiv((jpp[d.M]-d.Off[d.M])*c[d.M], v[d.M])
	for k := 0; k < n; k++ {
		var sum int64
		for l := 0; l < k; l++ {
			sum += ht.At(k, l) * jp[l]
		}
		rem := rat.Mod(sum, c[k])
		if k == d.M {
			jp[k] = c[k]*(jpp[k]-d.Off[k]) - t*v[k] + rem
		} else {
			jp[k] = c[k]*(jpp[k]-d.Off[k]) + rem
		}
	}
	return t, jp
}
