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
	// The tile table numbers valid tiles chain by chain, ranks aside: pid
	// cell i's tiles j^S_m = chainLo[i], … are tileBase[i] … tileBase[i+1]−1.
	chainLo, tileBase []int64
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
	d.chainLo, d.tileBase = make([]int64, len(chains)), make([]int64, len(chains)+1)
	for i := range chains {
		c := &chains[i]
		d.chainLo[i], d.tileBase[i+1] = c.min, d.tileBase[i]+c.count
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

// tileIndex returns j^S's index into the tile table; ok is false when j^S
// is not a valid tile. Chains are contiguous, so this is exactly the paper's
// valid() predicate (TiledSpace.ValidTile) with no bound evaluated.
func (d *Distribution) tileIndex(jS ilin.Vec) (int64, bool) {
	i, ok := d.pidBox.IndexOmit(jS, d.M)
	if !ok {
		return 0, false
	}
	at := d.tileBase[i] + jS[d.M] - d.chainLo[i]
	return at, at >= d.tileBase[i] && at < d.tileBase[i+1]
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
// in one stack buffer, filtered through the per-dependence dsDir table and
// looked up in the tile table.
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
		if _, valid := d.tileIndex(succ); valid {
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

// String summarizes the distribution.
func (d *Distribution) String() string {
	return fmt.Sprintf("distrib: m=%d, %d processors, offsets %v, %d processor deps", d.M+1, d.NumProcs(), d.Off, len(d.DM))
}

// FullTileCommCount returns the communication-region size along DM[di] of
// a tile that is fully inside the iteration space — a tile-independent
// constant per direction, so large simulations can cache it.
func (d *Distribution) FullTileCommCount(di int) int64 { return d.Protocol().full.region[di] }

// HasSuccessor reports whether tile s has at least one valid successor
// tile in processor direction DM[dir] (the paper's send condition).
func (d *Distribution) HasSuccessor(s ilin.Vec, dir int) bool {
	_, ok := d.MinSucc(s, dir)
	return ok
}
