package exec

import (
	"tilespace/internal/distrib"
	"tilespace/internal/ilin"
)

// This file implements the tile plan compiler: the static half of the
// executor's static/dynamic split. The paper's central claim is that the
// TTIS transformation makes everything rectangular and cheap — its
// generated code walks the LDS with incremental (strength-reduced)
// addresses, never dividing per point. The reference executor
// (legacy_test.go) re-derives every address through rat.FloorDiv, n·(q+1)
// divisions per iteration point. A tilePlan evaluates the Addresser once per *distinct clamped
// tile shape* and replays the result as pure slice arithmetic:
//
//   - addresses are affine in the chain slot t (Addresser.ChainStep), so
//     offsets recorded at t = 0 serve every tile of the shape;
//   - the communication region along each processor direction collapses
//     to maximal contiguous LDS runs (distrib.CommRuns), so pack and
//     unpack become a handful of bulk copies;
//   - the global iteration point j = P·j^S + U·z splits into a per-tile
//     base P·j^S plus the per-point U·z recorded in the plan.
//
// Interior tiles — the vast majority at paper scale — share one plan;
// boundary tiles get per-shape plans keyed by the hash of their clamped
// lattice point list (verified exactly on hit, so hash collisions cannot
// alias shapes).

// tilePlan is the compiled address program of one clamped tile shape on
// one rank. All offsets are flat LDS cell indices at chain slot 0; add
// t·chainStep to place them at slot t.
type tilePlan struct {
	npts int
	// zs is the clamped lattice point list (npts×n, ScanTilePoints order)
	// — the plan's identity, compared exactly on cache probes.
	zs []int64
	// uz[i·n+k] = (U·z_i)_k: the tile-relative part of the global
	// iteration point, j = P·j^S + U·z.
	uz []int64
	// writeOff[i] = Flat(j'_i, 0): the compute/pack cell of point i.
	writeOff []int64
	// readOff[i·q+l] = FlatRead(j'_i, d'_l, 0): the cell dependence l of
	// point i reads.
	readOff []int64
	// dirs[d] holds the communication region along Dist.DM[d] as
	// contiguous runs (pack order), with the fused point count.
	dirs []dirPlan
	// maxWrite/maxRead are the shape's highest write and read cell offsets
	// (slot 0), so the checkpoint layer's LDS dirty bound updates in O(1)
	// per tile instead of per point.
	maxWrite int64
	maxRead  int64
	// local is the shape's compiled intra-tile parallel schedule
	// (wavefronts → stride-1 runs → worker segments), compiled lazily on
	// first parallel execution; nil until then and in serial runs.
	local *localPlan
}

// dirPlan is one processor direction's compiled communication region.
type dirPlan struct {
	runs  []distrib.Run
	total int64
}

// planCache holds one rank's compiled plans. The full-TTIS plan (every
// lattice point unclamped, recognized by point count) is shared by all
// interior tiles; boundary shapes chain under their z-list hash.
type planCache struct {
	full     *tilePlan
	boundary map[uint64][]*tilePlan
	zScratch []int64 // reusable z-list collection buffer
}

func newPlanCache() *planCache {
	return &planCache{boundary: map[uint64][]*tilePlan{}}
}

// planFor returns the compiled plan of tile's clamped shape, compiling it
// on first encounter. Steady state (shape already cached) performs one
// lattice scan into a reused buffer plus a hash probe — no allocation.
func (st *rankState) planFor(tile ilin.Vec) *tilePlan {
	pc := st.plans
	n := st.p.TS.T.N
	pc.zScratch = pc.zScratch[:0]
	st.p.TS.ScanTilePoints(tile, func(z, jp ilin.Vec) bool {
		pc.zScratch = append(pc.zScratch, z...)
		return true
	})
	npts := len(pc.zScratch) / n
	if int64(npts) == st.p.TS.T.TileSize {
		// The clamped set is a subset of the full TTIS lattice; equal
		// cardinality means the tile is full, so the shared plan applies.
		if pc.full == nil {
			pc.full = st.compilePlan(tile, pc.zScratch)
		}
		return pc.full
	}
	key := ilin.HashInt64s(ilin.HashSeed(), pc.zScratch)
	for _, pl := range pc.boundary[key] {
		if int64sEqual(pl.zs, pc.zScratch) {
			return pl
		}
	}
	pl := st.compilePlan(tile, pc.zScratch)
	pc.boundary[key] = append(pc.boundary[key], pl)
	return pl
}

// compilePlan runs the Addresser over the clamped point list once and
// records everything the dynamic phases replay. tile is a representative
// tile of the shape (the communication region depends only on TTIS
// coordinates, so any same-shape tile yields identical runs).
func (st *rankState) compilePlan(tile ilin.Vec, zs []int64) *tilePlan {
	ts := st.p.TS
	d := st.p.Dist
	n := ts.T.N
	q := len(st.dps)
	npts := len(zs) / n
	pl := &tilePlan{
		npts:     npts,
		zs:       append([]int64(nil), zs...),
		uz:       make([]int64, npts*n),
		writeOff: make([]int64, npts),
		readOff:  make([]int64, npts*q),
		dirs:     make([]dirPlan, len(d.DM)),
	}
	jp := make(ilin.Vec, n)
	for i := 0; i < npts; i++ {
		z := zs[i*n : i*n+n]
		for k := 0; k < n; k++ {
			var s, u int64
			for l := 0; l < n; l++ {
				s += ts.T.HT.At(k, l) * z[l] // H̃' is lower-triangular
				u += ts.T.U.At(k, l) * z[l]
			}
			jp[k] = s
			pl.uz[i*n+k] = u
		}
		pl.writeOff[i] = st.addr.Flat(jp, 0)
		if pl.writeOff[i] > pl.maxWrite {
			pl.maxWrite = pl.writeOff[i]
		}
		for l := 0; l < q; l++ {
			pl.readOff[i*q+l] = st.addr.FlatRead(jp, st.dps[l], 0)
			if pl.readOff[i*q+l] > pl.maxRead {
				pl.maxRead = pl.readOff[i*q+l]
			}
		}
	}
	for di, dm := range d.DM {
		runs, total := d.CommRuns(tile, dm, st.addr)
		pl.dirs[di] = dirPlan{runs: runs, total: total}
	}
	return pl
}

// computePhasePlanned sweeps the tile through the compiled address
// program: zero divisions, zero map lookups, zero allocations per point.
func (st *rankState) computePhasePlanned(pl *tilePlan, t int64) {
	w := int64(st.p.Width)
	n := st.p.TS.T.N
	q := len(st.dps)
	tOff := t * st.chainStep
	la := st.la
	j := st.jBuf
	reads := st.reads
	pBase := st.pBase
	for i := 0; i < pl.npts; i++ {
		uz := pl.uz[i*n : i*n+n]
		for k := 0; k < n; k++ {
			j[k] = pBase[k] + uz[k]
		}
		ro := pl.readOff[i*q : i*q+q]
		for l := 0; l < q; l++ {
			cell := (ro[l] + tOff) * w
			reads[l] = la[cell : cell+w]
		}
		out := (pl.writeOff[i] + tOff) * w
		st.p.Kernel(j, reads, la[out:out+w])
	}
	st.markDirty((pl.maxWrite + tOff + 1) * w)
	st.chargePointDelay(int64(pl.npts))
}

// initPhasePlanned injects Initial values for boundary tiles through the
// plan's read-offset table instead of re-deriving addresses.
func (st *rankState) initPhasePlanned(pl *tilePlan, tile ilin.Vec, t int64) {
	if int64(pl.npts) == st.p.TS.T.TileSize && st.interiorTile(tile) {
		return
	}
	w := int64(st.p.Width)
	n := st.p.TS.T.N
	q := len(st.deps)
	tOff := t * st.chainStep
	for i := 0; i < pl.npts; i++ {
		uz := pl.uz[i*n : i*n+n]
		for k := 0; k < n; k++ {
			st.jBuf[k] = st.pBase[k] + uz[k]
		}
		for l := 0; l < q; l++ {
			for k := 0; k < n; k++ {
				st.srcBuf[k] = st.jBuf[k] - st.deps[l][k]
			}
			if st.p.TS.Nest.Space.Contains(st.srcBuf) {
				continue
			}
			st.p.Initial(st.srcBuf, st.initBuf)
			cell := (pl.readOff[i*q+l] + tOff) * w
			copy(st.la[cell:cell+w], st.initBuf)
		}
	}
	st.markDirty((pl.maxRead + tOff + 1) * w)
}

// mulVecInto computes dst = m·v without allocating.
func mulVecInto(dst ilin.Vec, m *ilin.Mat, v ilin.Vec) {
	for i := 0; i < m.Rows; i++ {
		var s int64
		for j := 0; j < m.Cols; j++ {
			s += m.At(i, j) * v[j]
		}
		dst[i] = s
	}
}

func int64sEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
