package exec

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"tilespace/internal/distrib"
	"tilespace/internal/ilin"
	"tilespace/internal/poly"
)

// This file implements the tile plan compiler: the static half of the
// executor's static/dynamic split. The paper's central claim is that the
// TTIS transformation makes everything rectangular and cheap — its
// generated code walks the LDS with incremental (strength-reduced)
// addresses, never dividing per point. The reference executor
// (legacy_test.go) re-derives every address through rat.FloorDiv, n·(q+1)
// divisions per iteration point. A tilePlan evaluates the Addresser once per
// *distinct clamped tile shape* and replays the result as pure slice
// arithmetic:
//
//   - addresses are affine in the chain slot t (Addresser.ChainStep), so
//     offsets recorded at t = 0 serve every tile of the shape;
//   - the communication region along each processor direction collapses
//     to maximal contiguous LDS runs (distrib.CommRuns), so pack and
//     unpack become a handful of bulk copies;
//   - the global iteration point j = P·j^S + U·z splits into a per-tile
//     base P·j^S plus the per-point U·z recorded in the plan.
//
// Plans are compiled lazily, once per Program, and are read-only afterwards:
// every rank of every run — including concurrent runs against one cached
// Program — shares them. Flat offsets depend on the rank only through its
// LDS strides, i.e. through ChainLen[r] (distrib.LDSShape), so a plan is
// keyed by (ChainLen, clamped shape); interior tiles — the vast majority at
// paper scale — all land on one entry. What remains per run is the LDS, the
// message buffers and a little scratch (newRankState).

// tilePlan is the compiled address program of one clamped tile shape under
// one ChainLen. All offsets are flat LDS cell indices at chain slot 0; add
// t·chainStep to place them at slot t.
type tilePlan struct {
	npts     int
	chainLen int64
	// zs is the clamped lattice point list (npts×n, ScanTilePoints order)
	// — with chainLen the plan's identity, compared exactly on lookup.
	zs []int64
	// uz[i·n+k] = (U·z_i)_k: the tile-relative part of the global
	// iteration point, j = P·j^S + U·z.
	uz []int64
	// uzLo/uzHi bound uz per dimension: the shape's bounding box.
	uzLo, uzHi ilin.Vec
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
	// (wavefronts → stride-1 runs), compiled on the first parallel
	// execution by any rank.
	localOnce sync.Once
	local     *localPlan
}

// dirPlan is one processor direction's compiled communication region.
type dirPlan struct {
	runs  []distrib.Run
	total int64
}

// compiledPlans is a Program's lazily compiled executor state. The zero
// value is ready: NewProgram does no plan work, and a process that runs one
// rank (cmd/tilerankd) compiles only that rank.
type compiledPlans struct {
	once  sync.Once  // builds the rank-independent tables and sizes ranks
	ranks []rankPlan // each compiled under its own Once, on its first run

	deps         []ilin.Vec // original dependence vectors d_l
	depLo, depHi ilin.Vec   // their per-dimension extremes
	dps          []ilin.Vec // transformed d'_l
	seqDims      []int      // sequential dimension set of the dependence cone
	// dsOrder lists tile-dependence indices in receive-processing order;
	// dsDmIdx maps each to its index into Dist.DM (−1 for the
	// intra-processor direction). The DM index doubles as the message tag,
	// exactly as in the reference executor.
	dsOrder []int
	dsDmIdx []int

	// mu guards shapes, the distinct (ChainLen, shape) plans chained under
	// their hash; it is taken only while a rank compiles.
	mu     sync.Mutex
	shapes map[uint64][]*tilePlan

	// steps counts lattice scans, plan compilations and boundary-list
	// builds: the compile work a run on a warm Program must not repeat.
	steps atomic.Int64
}

// rankPlan is one rank's compiled chain: its addresser, communication
// tables, one slotPlan per chain slot and the inbound-message table of
// receive.go.
type rankPlan struct {
	once      sync.Once
	err       error // a tile whose neighbour processor has no rank, or an aborted compile
	addr      *distrib.Addresser
	chainStep int64 // flat-address step per chain slot

	// For each processor-direction index i into Dist.DM, sendRank[i] /
	// recvRank[i] is the rank of pid ± DM[i] (−1 when unmapped), dmFulls[i]
	// is the direction with the mapping dimension re-inserted, and
	// dirShift[i] is the constant pack→unpack flat-address shift
	// (Addresser.DirShift).
	sendRank []int
	recvRank []int
	dmFulls  []ilin.Vec
	dirShift []int64

	slots []slotPlan
	msgs  []inMsg // inbound-message table, in claim order
	rows  [][]int // per direction: its rows of msgs in wire FIFO order
}

// slotPlan is the compiled program of one chain slot.
type slotPlan struct {
	tile  ilin.Vec
	pBase ilin.Vec // P·j^S: the tile's part of the global iteration point
	plan  *tilePlan
	// boundary lists the reads whose source lies outside the iteration
	// space, as indices i·q+l into plan.readOff in (point, dependence)
	// order: the Initial injections of this slot. Empty for interior tiles.
	boundary []int32
	sends    []int // directions (indices into Dist.DM) this tile sends along
}

// rank returns rank r's compiled chain, compiling it on first use.
func (p *Program) rank(r int) *rankPlan {
	cp := &p.cp
	cp.once.Do(p.compileShared)
	rp := &cp.ranks[r]
	rp.once.Do(func() { p.compileRank(r, rp) })
	return rp
}

// compileShared builds the tables no rank owns.
func (p *Program) compileShared() {
	cp := &p.cp
	d := p.Dist
	cp.ranks = make([]rankPlan, d.NumProcs())
	for l := 0; l < p.TS.Nest.Q(); l++ {
		dep := p.TS.Nest.Dep(l)
		widen(&cp.depLo, &cp.depHi, dep)
		cp.deps = append(cp.deps, dep)
		cp.dps = append(cp.dps, p.TS.DP.Col(l))
	}
	cp.seqDims = distrib.SeqDims(p.TS.DP)
	// Two tile dependencies with the same d^m but different m-components
	// deliver on one FIFO stream and can target the same receiving tile;
	// the sender emits the lower-m predecessor's message first, so process
	// receives in descending d^S_m (= ascending predecessor m) order.
	cp.dsOrder = make([]int, len(p.TS.DS))
	for i := range cp.dsOrder {
		cp.dsOrder[i] = i
	}
	sort.SliceStable(cp.dsOrder, func(a, b int) bool {
		return p.TS.DS[cp.dsOrder[a]][d.M] > p.TS.DS[cp.dsOrder[b]][d.M]
	})
	cp.dsDmIdx = make([]int, len(p.TS.DS))
	for i, dS := range p.TS.DS {
		cp.dsDmIdx[i] = -1
		dm := d.DmOf(dS)
		if dm.IsZero() {
			continue
		}
		for k, v := range d.DM {
			if v.Equal(dm) {
				cp.dsDmIdx[i] = k
				break
			}
		}
	}
	cp.shapes = map[uint64][]*tilePlan{}
}

// compileRank compiles rank r's chain: per slot the tile plan, the
// boundary-read list and the send directions, and — the one MinSucc walk of
// the executor — the §3.2 RECEIVE enumerated into the inbound-message
// table.
func (p *Program) compileRank(r int, rp *rankPlan) {
	cp := &p.cp
	d := p.Dist
	// Stands if a panic (an int64 overflow in the containment test, say)
	// unwinds through the rank's Once: later runs then fail cleanly instead
	// of executing a half-compiled chain.
	rp.err = fmt.Errorf("exec: rank %d: plan compilation did not complete", r)
	var err error
	rp.addr = d.Addresser(r)
	rp.chainStep = rp.addr.ChainStep()
	rp.buildCommTables(d, d.Pids[r])
	rp.slots = make([]slotPlan, d.ChainLen[r])
	rp.rows = make([][]int, len(d.DM))
	var zs []int64 // lattice buffer reused across the rank's scans
	pred := make(ilin.Vec, p.TS.T.N)
	for t := range rp.slots {
		sl := &rp.slots[t]
		sl.tile = d.TileAt(r, int64(t))
		sl.pBase = p.TS.T.P.MulVec(sl.tile)
		sl.plan = p.planFor(rp, sl.tile, &zs)
		sl.boundary = p.boundaryReads(sl)
		for _, si := range cp.dsOrder {
			di := cp.dsDmIdx[si]
			if di < 0 {
				continue // same-processor dependence: data is already in the LDS
			}
			subInto(pred, sl.tile, p.TS.DS[si])
			if !p.TS.ValidTile(pred) {
				continue
			}
			if ms, ok := d.MinSucc(pred, d.DM[di]); !ok || !ms.Equal(sl.tile) {
				continue
			}
			// The predecessor's region in this rank's address space: its
			// shape under this rank's ChainLen.
			dir := &p.planFor(rp, pred, &zs).dirs[di]
			if dir.total == 0 {
				continue
			}
			if rp.recvRank[di] < 0 && err == nil {
				err = fmt.Errorf("exec: predecessor tile %v has no rank", pred)
			}
			rp.rows[di] = append(rp.rows[di], len(rp.msgs))
			rp.msgs = append(rp.msgs, inMsg{t: int64(t), tau: pred[d.M] - d.ChainStart[r], di: di, dir: dir})
		}
		for i, dm := range d.DM {
			if !d.HasSuccessor(sl.tile, dm) || sl.plan.dirs[i].total == 0 {
				continue
			}
			if rp.sendRank[i] < 0 && err == nil {
				err = fmt.Errorf("exec: successor pid of tile %v along %v has no rank", sl.tile, dm)
			}
			sl.sends = append(sl.sends, i)
		}
	}
	rp.err = err
}

// buildCommTables precomputes the rank's per-direction tables; the
// reference executor recomputed all of them (PidOf, Rank, dm.String map
// lookups) once per tile per direction.
func (rp *rankPlan) buildCommTables(d *distrib.Distribution, pid ilin.Vec) {
	nd := len(d.DM)
	rp.sendRank = make([]int, nd)
	rp.recvRank = make([]int, nd)
	rp.dmFulls = make([]ilin.Vec, nd)
	rp.dirShift = make([]int64, nd)
	for i, dm := range d.DM {
		rp.sendRank[i] = -1
		if r, ok := d.Rank(pid.Add(dm)); ok {
			rp.sendRank[i] = r
		}
		rp.recvRank[i] = -1
		if r, ok := d.Rank(pid.Sub(dm)); ok {
			rp.recvRank[i] = r
		}
		// Re-insert the mapping dimension (as 0) into the direction.
		full := make(ilin.Vec, 0, len(dm)+1)
		full = append(full, dm[:d.M]...)
		full = append(full, 0)
		rp.dmFulls[i] = append(full, dm[d.M:]...)
		rp.dirShift[i] = rp.addr.DirShift(rp.dmFulls[i])
	}
}

// planFor returns the plan of tile's clamped shape in rp's address space,
// compiling it if no rank of the same ChainLen has met the shape yet. zs is
// the caller's reusable lattice buffer. Candidates are compared exactly, so
// hash collisions cannot alias shapes.
func (p *Program) planFor(rp *rankPlan, tile ilin.Vec, zs *[]int64) *tilePlan {
	cp := &p.cp
	*zs = (*zs)[:0]
	p.TS.ScanTilePoints(tile, func(z, jp ilin.Vec) bool {
		*zs = append(*zs, z...)
		return true
	})
	cp.steps.Add(1)
	chainLen := int64(len(rp.slots))
	key := ilin.HashInt64s(ilin.HashInt64(ilin.HashSeed(), chainLen), *zs)
	cp.mu.Lock()
	defer cp.mu.Unlock()
	for _, pl := range cp.shapes[key] {
		if pl.chainLen == chainLen && slices.Equal(pl.zs, *zs) {
			return pl
		}
	}
	cp.steps.Add(1)
	pl := p.compilePlan(rp.addr, chainLen, tile, *zs)
	cp.shapes[key] = append(cp.shapes[key], pl)
	return pl
}

// compilePlan runs the Addresser over the clamped point list once and
// records everything the dynamic phases replay. tile is a representative
// tile of the shape (the communication region depends only on TTIS
// coordinates, so any same-shape tile yields identical runs).
func (p *Program) compilePlan(addr *distrib.Addresser, chainLen int64, tile ilin.Vec, zs []int64) *tilePlan {
	ts := p.TS
	d := p.Dist
	dps := p.cp.dps
	n := ts.T.N
	q := len(dps)
	npts := len(zs) / n
	pl := &tilePlan{
		npts:     npts,
		chainLen: chainLen,
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
		widen(&pl.uzLo, &pl.uzHi, pl.uz[i*n:i*n+n])
		pl.writeOff[i] = addr.Flat(jp, 0)
		if pl.writeOff[i] > pl.maxWrite {
			pl.maxWrite = pl.writeOff[i]
		}
		for l := 0; l < q; l++ {
			pl.readOff[i*q+l] = addr.FlatRead(jp, dps[l], 0)
			if pl.readOff[i*q+l] > pl.maxRead {
				pl.maxRead = pl.readOff[i*q+l]
			}
		}
	}
	for di, dm := range d.DM {
		runs, total := d.CommRuns(tile, dm, addr)
		pl.dirs[di] = dirPlan{runs: runs, total: total}
	}
	return pl
}

// widen grows the box [lo, hi] to hold v; a nil box starts at v.
func widen(lo, hi *ilin.Vec, v []int64) {
	if *lo == nil {
		*lo, *hi = slices.Clone(v), slices.Clone(v)
	}
	for k, x := range v {
		(*lo)[k] = min((*lo)[k], x)
		(*hi)[k] = max((*hi)[k], x)
	}
}

// boundaryReads builds a slot's boundary-read list with the integer
// containment test: the one place the executor asks whether a point is in
// the iteration space. Guards only where needed: a face of the space that
// even the nearest corner of the slot's read-source bounding box satisfies
// cannot be crossed by any read, so interior slots — no face left — cost
// nothing and boundary slots test each read against the faces they touch.
func (p *Program) boundaryReads(sl *slotPlan) []int32 {
	cp := &p.cp
	pl := sl.plan
	if pl.npts == 0 || len(cp.deps) == 0 {
		return nil // an empty tile inside the chain's span, or nothing to read
	}
	cp.steps.Add(1)
	n := p.TS.T.N
	src := make(ilin.Vec, n)
	var faces []poly.Constraint
	for _, c := range p.TS.Nest.Space.Cons {
		for k := range src {
			if c.Coef[k].Sign() > 0 {
				src[k] = sl.pBase[k] + pl.uzHi[k] - cp.depLo[k]
			} else {
				src[k] = sl.pBase[k] + pl.uzLo[k] - cp.depHi[k]
			}
		}
		if !c.SatisfiedBy(src) {
			faces = append(faces, c)
		}
	}
	if len(faces) == 0 {
		return nil
	}
	q := len(cp.deps)
	var out []int32
	for i := 0; i < pl.npts; i++ {
		uz := pl.uz[i*n : i*n+n]
		for l, dep := range cp.deps {
			for k := range src {
				src[k] = sl.pBase[k] + uz[k] - dep[k]
			}
			for _, c := range faces {
				if !c.SatisfiedBy(src) {
					out = append(out, int32(i*q+l))
					break
				}
			}
		}
	}
	return out
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

// initPhasePlanned injects Initial values by replaying the slot's compiled
// boundary-read list: one Initial call per read whose source lies outside
// the iteration space, and no containment test.
func (st *rankState) initPhasePlanned(sl *slotPlan, t int64) {
	if len(sl.boundary) == 0 {
		return
	}
	pl := sl.plan
	w := int64(st.p.Width)
	n := st.p.TS.T.N
	q := len(st.deps)
	tOff := t * st.chainStep
	for _, ri := range sl.boundary {
		uz := pl.uz[int(ri)/q*n:]
		dep := st.deps[int(ri)%q]
		for k := 0; k < n; k++ {
			st.srcBuf[k] = sl.pBase[k] + uz[k] - dep[k]
		}
		st.p.Initial(st.srcBuf, st.initBuf)
		cell := (pl.readOff[ri] + tOff) * w
		copy(st.la[cell:cell+w], st.initBuf)
	}
	st.markDirty((pl.maxRead + tOff + 1) * w)
}
