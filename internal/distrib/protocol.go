package distrib

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"tilespace/internal/ilin"
	"tilespace/internal/poly"
	"tilespace/internal/rat"
)

// This file compiles the paper's §3.2 protocol — per chain slot: which
// messages to claim, from which predecessor, into which LDS cells; what to
// compute; what to send where — into plain tables, once per Distribution.
// It is the inspector half of an inspector/executor split: internal/exec
// interprets the tables, internal/verify replays them symbolically and
// internal/simnet costs them, so the proofs and the predictions are about
// the tables that run. Nothing here knows mpi, float64 or a kernel.
//
// The tables have two levels. The schedule level (Schedule) holds, per rank,
// the chain's slots (tile, P·j^S, point count, sends with value counts), the
// inbound-message table in claim order with its per-direction FIFO queues,
// and the neighbour ranks: counts only, no per-point table, so the simulator
// can walk it at paper scale. The address level (Plan) attaches to each slot
// the compiled address program of its clamped shape and its boundary-read
// runs, and to each inbound row the predecessor's region as runs in the
// receiver's address space. Both derive every per-tile fact — the point
// count, each direction's region size and runs, the shape key — from one
// row scan of the tile kept in the tile table (tileShape, shared by equal
// shapes; a schedule-only compile keeps the counts alone); a tile wholly
// inside the space is never scanned.
//
// The unit of the address level is the TTIS row: one innermost segment of
// the tile's point loops (tiling.ScanTileRows), along which z_{n-1} steps by
// one. The innermost TTIS dimension has stride 1 in the LDS, so along a row
// the write cell and every read cell advance by exactly one cell per point
// and the global iteration point by the constant U·e_{n-1} (Protocol.RowStep)
// — the paper's strides c_k (§3.3) seen from the executor. A table therefore
// holds one entry per row, never one per point, and what walks it (the
// executor's sweep, injection and write-back; the certifier's replay) steps
// addresses instead of looking them up. A row is a fact about the scan, not
// an empirically merged address run: two consecutive rows may happen to be
// adjacent in every address and still jump in U·z, so they stay two rows.
//
// Compilation is lazy and happens once: the rank-independent tables under
// one sync.Once, each rank's levels under their own, so a process that runs
// one rank (cmd/tilerankd) compiles one rank, and certifying then running —
// or concurrent runs against one cached Program — share one read-only copy.

// Protocol holds the rank-independent tables of a Distribution's compiled
// protocol; Distribution.Protocol returns it.
type Protocol struct {
	Deps []ilin.Vec // original dependence vectors d_l
	DPs  []ilin.Vec // transformed d'_l
	// DSOrder lists tile-dependence indices in receive-processing order:
	// two tile dependencies with the same d^m but different m-components
	// deliver on one FIFO stream and can target the same receiving tile, and
	// the sender emits the lower-m predecessor's message first, so receives
	// go in descending d^S_m (= ascending predecessor m). DSDir maps each
	// tile dependence to its index into DM (−1 for the intra-processor
	// direction); the DM index doubles as the message tag.
	DSOrder []int
	DSDir   []int
	// DmFulls[i] is DM[i] with the mapping dimension re-inserted as 0.
	DmFulls []ilin.Vec
	// RowStep is U·e_{n-1}: the step of the global iteration point from one
	// point of a TTIS row to the next.
	RowStep ilin.Vec

	depLo, depHi ilin.Vec // per-dimension extremes of Deps

	once  sync.Once
	ranks []RankPlan // each level compiled under its own Once

	// tiles is the tile table (Distribution.tileIndex), each entry found
	// on first use; full is the shape of tiles wholly inside the space.
	tiles []tileEntry
	full  *tileShape

	// mu guards the shape table — the distinct shapes, chained under their
	// rows' hash, with nplans plans in all; it is taken only while compiling.
	mu     sync.Mutex
	shapes map[uint64][]*tileShape
	nplans int

	// scans counts tile row scans; steps counts plan compilations, region
	// runs and boundary-list builds. Neither may grow on a warm Distribution.
	scans, steps atomic.Int64
}

// tileEntry is one tile's entry of the tile table: its counts, and the
// shape with its rows that the address level reads.
type tileEntry struct {
	once, rowsOnce sync.Once
	counts, shape  *tileShape
}

// tileShape is one clamped tile shape's row scan — per row the first point's
// lattice coordinate and the length — with the counts derived from it; a
// schedule-only compile keeps the counts alone.
type tileShape struct {
	z      []int64 // n per row
	lens   []int64
	npts   int64
	region []int64     // per direction: the communication region's size
	plans  []*TilePlan // one per ChainLen compiled so far, under Protocol.mu
}

// RankPlan is one rank's compiled chain. Everything but Slots[·].Plan,
// Slots[·].Boundary, MaxRow and Msgs[·].Runs is the schedule level.
type RankPlan struct {
	schedOnce, addrOnce sync.Once
	// Err is the schedule level's verdict: a tile whose neighbour processor
	// has no rank, or an aborted compile. Every consumer surfaces it.
	Err     error
	addrErr error

	Addr      *Addresser
	ChainStep int64 // flat-address step per chain slot

	// For each processor-direction index i into DM, SendRank[i] / RecvRank[i]
	// is the rank of pid ± DM[i] (−1 when unmapped) and DirShift[i] is the
	// constant pack→unpack flat-address shift (Addresser.DirShift).
	SendRank []int
	RecvRank []int
	DirShift []int64

	Slots  []SlotPlan
	MaxRow int     // address level: the longest TTIS row of any slot's plan, in points
	Msgs   []InMsg // inbound-message table, in claim order
	Rows   [][]int // per direction: its rows of Msgs in wire FIFO order
}

// SlotPlan is the compiled program of one chain slot.
type SlotPlan struct {
	Tile  ilin.Vec
	PBase ilin.Vec // P·j^S: the tile's part of the global iteration point
	Npts  int64
	Sends []Send // in ascending direction: the slot's SEND

	// Address level. Boundary lists the reads whose source lies outside the
	// iteration space — the Initial injections of this slot — as runs along
	// the plan's rows, in (row, dependence, offset) order.
	Plan     *TilePlan
	Boundary []BoundaryRun
}

// BoundaryRun is N consecutive points of row Row of a slot's plan, from its
// point Off on, whose read through dependence Dep has its source outside the
// iteration space. The cells to inject are Plan.Read[Row·q+Dep] + Off + i and
// the sources P·j^S + Uz[Row] + (Off+i)·RowStep − d_Dep, for i in [0, N).
type BoundaryRun struct {
	Row, Off, N, Dep int32
}

// BoundaryValues is how many Initial value vectors the slot's runs inject.
func (sl *SlotPlan) BoundaryValues() int {
	n := 0
	for _, b := range sl.Boundary {
		n += int(b.N)
	}
	return n
}

// Send is one outbound message of a slot: its direction (index into DM =
// message tag) and how many points' values it carries.
type Send struct {
	Dir   int
	Count int64
}

// InMsg is one row of a rank's inbound-message table.
type InMsg struct {
	T     int64 // chain slot that claims it: the predecessor's minsucc tile
	Tau   int64 // the predecessor's slot on this rank's chain numbering: the unpack base
	Dir   int   // processor-direction index = message tag = stream
	DS    int   // the tile dependence it travels along (index into TS.DS)
	Count int64 // points carried
	// Runs is the predecessor's communication region along Dir as runs in
	// this rank's address space (address level).
	Runs DirPlan
}

// TilePlan is the compiled address program of one clamped tile shape under
// one ChainLen: one entry per TTIS row. All cells are flat LDS cell indices
// at chain slot 0; add t·ChainStep to place them at slot t. Flat offsets
// depend on the rank only through its LDS strides, i.e. through ChainLen
// (LDSShape), so interior tiles — the vast majority at paper scale — all
// share one entry.
type TilePlan struct {
	Npts     int
	ChainLen int64
	// Rows is the row table in scan order; the rows partition the shape's
	// points. Uz[r·n+k] = (U·z)_k is the tile-relative part of the global
	// iteration point of row r's first point z: point i of row r is
	// j = P·j^S + Uz[r] + i·RowStep.
	Rows []Row
	Uz   []int64
	// Read[r·q+l] = FlatRead(j', d'_l, 0) of row r's first point; point i of
	// the row reads cell Read[r·q+l] + i and writes Rows[r].Write + i.
	Read []int64
	// Segs is the row table again, cut into row classes with one constant
	// read offset per dependence: what the executor's compute phase walks.
	Segs   []Segment
	MaxRow int // the longest row, in points
	// UzLo and UzHi bound the tile-relative points U·z of every row, ends
	// included: the shape's box, which P·j^S places.
	UzLo, UzHi ilin.Vec
	// Dirs[d] holds the communication region along DM[d] as contiguous runs
	// in pack order.
	Dirs []DirPlan
	// MaxWrite/MaxRead are the highest write and read cells (slot 0): the
	// checkpoint layer's O(1) dirty bound.
	MaxWrite int64
	MaxRead  int64
}

// Segment is a maximal run of consecutive rows of a TilePlan, in scan
// order, that read at one offset vector from their writes: point i of each
// of its rows writes cell Write + i and reads cell Write + i + Off[l]
// through dependence l. This is the paper's §3 argument that a rectangular
// TTIS makes LDS addressing cheap, seen per row: the offset is
// Read[r·q+l] − Rows[r].Write, one vector per plan on every rectangular
// tiling of the shipped apps and on SOR's non-rectangular one, while
// Jacobi's and Heat3D's non-rectangular tilings cut a plan into a few that
// interleave. Segments follow scan order, so evaluating them in turn visits
// the points in the order the rows do.
type Segment struct {
	Off   []int64 // per dependence
	Rows  []Row   // the window TilePlan.Rows[First : First+len(Rows)]
	First int
	// Back is the least −Off[l] > 0, math.MaxInt64 if none: a point reads
	// the point Back before it in its row, if the row is longer.
	Back int64
}

// Row is one TTIS row of a TilePlan: N points whose write cells are
// Write, Write+1, … (Flat(j', 0) of the first point on).
type Row struct {
	N     int32
	Write int64
}

// DirPlan is one processor direction's compiled communication region.
type DirPlan struct {
	Runs  []Run
	Total int64
}

// Run is one maximal contiguous stretch of LDS cells inside a
// communication region: N cells starting at flat address Off (cell units,
// evaluated at chain slot 0 — add t·Addresser.ChainStep() to place it at
// chain slot t, and Addresser.DirShift(dmFull) to turn a pack run into its
// unpack counterpart).
type Run struct {
	Off int64
	N   int64
}

// Protocol returns the rank-independent tables, building them on first use.
func (d *Distribution) Protocol() *Protocol {
	d.proto.once.Do(d.compileShared)
	return &d.proto
}

// CompileSteps reports how much plan-compilation work the Distribution has
// done so far (see Protocol.steps).
func (d *Distribution) CompileSteps() int64 { return d.proto.steps.Load() }

// NumShapes returns the size of the compiled shape table: the distinct
// (ChainLen, clamped shape) address programs compiled so far.
func (d *Distribution) NumShapes() int {
	d.proto.mu.Lock()
	defer d.proto.mu.Unlock()
	return d.proto.nplans
}

// Schedule returns rank r's chain with the schedule level compiled.
func (d *Distribution) Schedule(r int) (*RankPlan, error) { return d.schedule(r, false) }

// schedule compiles rank r's schedule level once; with rows, the tiles it
// scans keep their rows for the address level to come.
func (d *Distribution) schedule(r int, rows bool) (*RankPlan, error) {
	rp := &d.Protocol().ranks[r]
	rp.schedOnce.Do(func() { d.compileSchedule(r, rp, rows) })
	return rp, rp.Err
}

// Plan returns rank r's chain with both levels compiled.
func (d *Distribution) Plan(r int) (*RankPlan, error) {
	rp, err := d.schedule(r, true)
	if err != nil {
		return rp, err
	}
	rp.addrOnce.Do(func() { d.compileAddresses(r, rp) })
	return rp, rp.addrErr
}

// compileShared builds the tables no rank owns.
func (d *Distribution) compileShared() {
	pr := &d.proto
	ts := d.TS
	pr.ranks = make([]RankPlan, d.NumProcs())
	for l := 0; l < ts.Nest.Q(); l++ {
		dep := ts.Nest.Dep(l)
		widen(&pr.depLo, &pr.depHi, dep)
		pr.Deps = append(pr.Deps, dep)
		pr.DPs = append(pr.DPs, ts.DP.Col(l))
	}
	pr.DSOrder = make([]int, len(ts.DS))
	for i := range pr.DSOrder {
		pr.DSOrder[i] = i
	}
	sort.SliceStable(pr.DSOrder, func(a, b int) bool {
		return ts.DS[pr.DSOrder[a]][d.M] > ts.DS[pr.DSOrder[b]][d.M]
	})
	pr.DSDir = d.dsDir
	pr.RowStep = ts.T.U.Col(ts.T.N - 1)
	pr.DmFulls = make([]ilin.Vec, len(d.DM))
	for i, dm := range d.DM {
		pr.DmFulls[i] = insertAt(dm, d.M, 0)
	}
	pr.tiles = make([]tileEntry, d.tileBase[len(d.tileBase)-1])
	pr.shapes = map[uint64][]*tileShape{}
	// A full tile's rows are the TTIS's, in its lexicographic order.
	rows, full := &tileShape{}, &tileShape{region: make([]int64, len(d.DM))}
	ts.T.ScanTTIS(func(z, jp ilin.Vec, n int64) bool {
		rows.z, rows.lens = append(rows.z, z...), append(rows.lens, n)
		d.countRow(full, jp, n)
		return true
	})
	pr.full = d.addShape(rows, full)
}

// tileOf returns valid tile's entry of the tile table, found on first use:
// a tile wholly inside the space has the full shape; any other is scanned,
// its rows kept when rows asks for them, as a two-level compile does — a
// second scan if a schedule-only compile counted the tile first.
func (d *Distribution) tileOf(tile ilin.Vec, rows bool) *tileEntry {
	i, ok := d.tileIndex(tile)
	if !ok {
		panic(fmt.Sprintf("distrib: tile %v is not a valid tile", tile))
	}
	e := &d.proto.tiles[i]
	e.once.Do(func() {
		if e.counts = d.proto.full; !d.TS.TileFullyInside(tile) {
			e.counts = d.scan(tile, rows)
		}
		if rows || e.counts == d.proto.full {
			e.shape = e.counts
		}
	})
	if rows {
		e.rowsOnce.Do(func() {
			if e.shape == nil {
				e.shape = d.scan(tile, true)
			}
		})
	}
	return e
}

// scan walks tile's rows once, counting its points and each direction's
// region. With keep it returns the shape table's entry for the rows, else a
// shape of counts alone.
func (d *Distribution) scan(tile ilin.Vec, keep bool) *tileShape {
	d.proto.scans.Add(1)
	counts := &tileShape{region: make([]int64, len(d.DM))}
	buf := rowBufs.Get().(*tileShape)
	defer rowBufs.Put(buf)
	buf.z, buf.lens = buf.z[:0], buf.lens[:0]
	d.TS.ScanTileRows(tile, func(z, jp ilin.Vec, n int64) bool {
		d.countRow(counts, jp, n)
		if keep {
			buf.z, buf.lens = append(buf.z, z...), append(buf.lens, n)
		}
		return true
	})
	if !keep {
		return counts
	}
	return d.addShape(buf, counts)
}

// rowBufs recycles scan's row buffers: a known shape costs no allocation.
var rowBufs = sync.Pool{New: func() any { return new(tileShape) }}

// countRow adds the n-point row from TTIS point jp to sh's counts.
func (d *Distribution) countRow(sh *tileShape, jp ilin.Vec, n int64) {
	sh.npts += n
	for di := range d.DM {
		sh.region[di] += n - d.regionFrom(jp, di, n)
	}
}

// addShape returns the shape table's entry for the rows of rows, adding
// counts, with copies of the rows, if they are new.
func (d *Distribution) addShape(rows, counts *tileShape) *tileShape {
	pr := &d.proto
	key := ilin.HashInt64s(ilin.HashInt64s(ilin.HashSeed(), rows.z), rows.lens)
	pr.mu.Lock()
	defer pr.mu.Unlock()
	for _, sh := range pr.shapes[key] {
		if slices.Equal(sh.z, rows.z) && slices.Equal(sh.lens, rows.lens) {
			return sh
		}
	}
	counts.z, counts.lens = slices.Clone(rows.z), slices.Clone(rows.lens)
	pr.shapes[key] = append(pr.shapes[key], counts)
	return counts
}

// rowJP sets jp to the TTIS coordinate H̃'·z of row r's first point.
func (d *Distribution) rowJP(sh *tileShape, r int, jp ilin.Vec) {
	z := sh.z[r*len(jp) : (r+1)*len(jp)]
	for k := range jp {
		jp[k] = 0
		for l := 0; l <= k; l++ { // H̃' is lower-triangular
			jp[k] += d.TS.T.HT.At(k, l) * z[l]
		}
	}
}

// regionFrom returns where the §3.2 communication region along DM[di] —
// j'_k ≥ cc_k on every non-mapping k where d^m is 1 — starts in the n-point
// row from TTIS point jp, n if it misses the row. Only j'_{n-1} moves along
// a row, so the row's share of the region is a suffix.
func (d *Distribution) regionFrom(jp ilin.Vec, di int, n int64) int64 {
	cc, last, from := d.TS.CC, len(jp)-1, int64(0)
	for k, i := 0, 0; k <= last; k++ {
		if k == d.M {
			continue
		}
		if d.DM[di][i] == 1 && jp[k] < cc[k] {
			if k != last {
				return n
			}
			from = rat.CeilDiv(cc[k]-jp[k], d.TS.T.C[k])
		}
		i++
	}
	return min(from, n)
}

// regionRuns returns shape sh's region along DM[di] as maximal runs of a's
// LDS cells at slot 0, in scan order: a row's share is one run (the
// innermost dimension has stride 1), merged with the last when they meet.
func (d *Distribution) regionRuns(sh *tileShape, di int, a *Addresser) DirPlan {
	var dp DirPlan
	jp := make(ilin.Vec, d.TS.T.N)
	for r, n := range sh.lens {
		d.rowJP(sh, r, jp)
		from := d.regionFrom(jp, di, n)
		if from == n {
			continue
		}
		off := a.Flat(jp, 0) + from
		if k := len(dp.Runs) - 1; k >= 0 && dp.Runs[k].Off+dp.Runs[k].N == off {
			dp.Runs[k].N += n - from
		} else {
			dp.Runs = append(dp.Runs, Run{Off: off, N: n - from})
		}
		dp.Total += n - from
	}
	return dp
}

// compileSchedule compiles rank r's schedule level: per slot the tile, its
// point count and its sends, and — the one MinSucc walk of the system — the
// §3.2 RECEIVE enumerated into the inbound-message table.
func (d *Distribution) compileSchedule(r int, rp *RankPlan, rows bool) {
	pr := &d.proto
	ts := d.TS
	// Stands if a panic unwinds through the rank's Once: later callers then
	// fail cleanly instead of reading a half-compiled chain.
	rp.Err = fmt.Errorf("distrib: rank %d: schedule compilation did not complete", r)
	var err error
	rp.Addr = d.Addresser(r)
	rp.ChainStep = rp.Addr.ChainStep()
	nd := len(d.DM)
	rp.SendRank = make([]int, nd)
	rp.RecvRank = make([]int, nd)
	rp.DirShift = make([]int64, nd)
	for i, dm := range d.DM {
		rp.SendRank[i], rp.RecvRank[i] = -1, -1
		if to, ok := d.Rank(d.Pids[r].Add(dm)); ok {
			rp.SendRank[i] = to
		}
		if from, ok := d.Rank(d.Pids[r].Sub(dm)); ok {
			rp.RecvRank[i] = from
		}
		rp.DirShift[i] = rp.Addr.DirShift(pr.DmFulls[i])
	}
	rp.Slots = make([]SlotPlan, d.ChainLen[r])
	rp.Rows = make([][]int, nd)
	pred := make(ilin.Vec, ts.T.N)
	for t := range rp.Slots {
		sl := &rp.Slots[t]
		sl.Tile = d.TileAt(r, int64(t))
		sl.PBase = ts.T.P.MulVec(sl.Tile)
		own := d.tileOf(sl.Tile, rows).counts
		sl.Npts = own.npts
		for _, si := range pr.DSOrder {
			di := pr.DSDir[si]
			if di < 0 {
				continue // same-processor dependence: data is already in the LDS
			}
			for k := range pred {
				pred[k] = sl.Tile[k] - ts.DS[si][k]
			}
			if _, valid := d.tileIndex(pred); !valid {
				continue
			}
			if ms, ok := d.MinSucc(pred, di); !ok || ms != si {
				continue // pred's message along di is received by another tile
			}
			cnt := d.tileOf(pred, rows).counts.region[di]
			if cnt == 0 {
				continue
			}
			if rp.RecvRank[di] < 0 && err == nil {
				err = fmt.Errorf("distrib: rank %d: predecessor tile %v of tile %v has no rank", r, pred, sl.Tile)
			}
			rp.Rows[di] = append(rp.Rows[di], len(rp.Msgs))
			rp.Msgs = append(rp.Msgs, InMsg{T: int64(t), Tau: pred[d.M] - d.ChainStart[r], Dir: di, DS: si, Count: cnt})
		}
		for di, dm := range d.DM {
			if !d.HasSuccessor(sl.Tile, di) {
				continue
			}
			cnt := own.region[di]
			if cnt == 0 {
				continue
			}
			if rp.SendRank[di] < 0 && err == nil {
				err = fmt.Errorf("distrib: rank %d: successor pid of tile %v along %v has no rank", r, sl.Tile, dm)
			}
			sl.Sends = append(sl.Sends, Send{Dir: di, Count: cnt})
		}
	}
	rp.Err = err
}

// compileAddresses attaches rank r's address level: per slot the tile plan
// and the boundary-read runs, per inbound row the predecessor's region runs.
func (d *Distribution) compileAddresses(r int, rp *RankPlan) {
	rp.addrErr = fmt.Errorf("distrib: rank %d: plan compilation did not complete", r)
	for t := range rp.Slots {
		sl := &rp.Slots[t]
		sl.Plan = d.planFor(rp, d.tileOf(sl.Tile, true).shape, true)
		sl.Boundary = d.boundaryReads(sl)
		rp.MaxRow = max(rp.MaxRow, sl.Plan.MaxRow)
	}
	for i := range rp.Msgs {
		m := &rp.Msgs[i]
		sh := d.tileOf(rp.Slots[m.T].Tile.Sub(d.TS.DS[m.DS]), true).shape
		if pl := d.planFor(rp, sh, false); pl != nil { // shared with the plan: the table stays small
			m.Runs = pl.Dirs[m.Dir]
		} else {
			m.Runs = d.regionRuns(sh, m.Dir, rp.Addr)
			d.proto.steps.Add(1)
		}
	}
	rp.addrErr = nil
}

// planFor returns the plan of shape sh in rp's address space, compiling it,
// when compile asks, if no rank of the same ChainLen has met the shape yet.
func (d *Distribution) planFor(rp *RankPlan, sh *tileShape, compile bool) *TilePlan {
	pr := &d.proto
	chainLen := int64(len(rp.Slots))
	pr.mu.Lock()
	defer pr.mu.Unlock()
	for _, pl := range sh.plans {
		if pl.ChainLen == chainLen {
			return pl
		}
	}
	if !compile {
		return nil
	}
	pr.steps.Add(1)
	pl := d.compilePlan(rp.Addr, chainLen, sh)
	sh.plans = append(sh.plans, pl)
	pr.nplans++
	return pl
}

// compilePlan runs the Addresser over the first point of every row of
// shape sh once and records everything the dynamic phases replay.
func (d *Distribution) compilePlan(addr *Addresser, chainLen int64, sh *tileShape) *TilePlan {
	ts := d.TS
	pr := &d.proto
	dps := pr.DPs
	n := ts.T.N
	q := len(dps)
	nrows := len(sh.lens)
	pl := &TilePlan{
		ChainLen: chainLen,
		Rows:     make([]Row, nrows),
		Uz:       make([]int64, nrows*n),
		Read:     make([]int64, nrows*q),
		Dirs:     make([]DirPlan, len(d.DM)),
	}
	jp, end := make(ilin.Vec, n), make(ilin.Vec, n)
	for r := 0; r < nrows; r++ {
		z, uz := sh.z[r*n:r*n+n], pl.Uz[r*n:r*n+n]
		d.rowJP(sh, r, jp)
		for k := 0; k < n; k++ {
			var u int64
			for l := 0; l < n; l++ {
				u += ts.T.U.At(k, l) * z[l]
			}
			uz[k] = u
		}
		last := sh.lens[r] - 1
		if last >= math.MaxInt32 {
			panic(fmt.Sprintf("distrib: TTIS row of %d points exceeds the row table's int32 length", last+1))
		}
		for k := range end {
			end[k] = uz[k] + last*pr.RowStep[k]
		}
		widen(&pl.UzLo, &pl.UzHi, uz)
		widen(&pl.UzLo, &pl.UzHi, end)
		pl.Rows[r] = Row{N: int32(last + 1), Write: addr.Flat(jp, 0)}
		pl.Npts += int(last + 1)
		pl.MaxRow = max(pl.MaxRow, int(last+1))
		pl.MaxWrite = max(pl.MaxWrite, pl.Rows[r].Write+last)
		for l := 0; l < q; l++ {
			pl.Read[r*q+l] = addr.FlatRead(jp, dps[l], 0)
			pl.MaxRead = max(pl.MaxRead, pl.Read[r*q+l]+last)
		}
	}
	pl.Segs = segments(pl, q)
	for di := range d.DM {
		pl.Dirs[di] = d.regionRuns(sh, di, addr)
	}
	return pl
}

// segments cuts pl's rows into row classes: a new segment wherever a row's
// offset vector differs from the row's before.
func segments(pl *TilePlan, q int) []Segment {
	var segs []Segment
	off := make([]int64, q)
	for r, row := range pl.Rows {
		for l := range off {
			off[l] = pl.Read[r*q+l] - row.Write
		}
		if k := len(segs) - 1; k >= 0 && slices.Equal(segs[k].Off, off) {
			segs[k].Rows = pl.Rows[segs[k].First : r+1]
			continue
		}
		sg := Segment{Off: slices.Clone(off), Rows: pl.Rows[r : r+1], First: r, Back: math.MaxInt64}
		for _, o := range off {
			if o < 0 {
				sg.Back = min(sg.Back, -o)
			}
		}
		segs = append(segs, sg)
	}
	return segs
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

// boundaryReads builds a slot's boundary-read runs: the one place the
// compiled protocol asks which points lie in the iteration space. Guards
// only where needed: a face of the space that even the nearest corner of the
// slot's read-source bounding box satisfies cannot be crossed by any read,
// so interior slots — no face left — cost nothing. The space is convex, so
// the sources of a row through one dependence that satisfy the faces in
// reach are one interval of the row (poly.LineInterval), and the reads
// outside are at most a prefix run and a suffix run.
func (d *Distribution) boundaryReads(sl *SlotPlan) []BoundaryRun {
	pr := &d.proto
	pl := sl.Plan
	if pl.Npts == 0 || len(pr.Deps) == 0 {
		return nil // an empty tile inside the chain's span, or nothing to read
	}
	pr.steps.Add(1)
	n := d.TS.T.N
	src := make(ilin.Vec, n)
	var faces []poly.Constraint
	for _, c := range d.TS.Nest.Space.Cons {
		for k := range src {
			if c.Coef[k].Sign() > 0 {
				src[k] = sl.PBase[k] + pl.UzHi[k] - pr.depLo[k]
			} else {
				src[k] = sl.PBase[k] + pl.UzLo[k] - pr.depHi[k]
			}
		}
		if !c.SatisfiedBy(src) {
			faces = append(faces, c)
		}
	}
	if len(faces) == 0 {
		return nil
	}
	var out []BoundaryRun
	for r, row := range pl.Rows {
		uz := pl.Uz[r*n : r*n+n]
		cnt := int64(row.N)
		for l, dep := range pr.Deps {
			for k := range src {
				src[k] = sl.PBase[k] + uz[k] - dep[k]
			}
			lo, hi := poly.LineInterval(faces, src, pr.RowStep, cnt)
			if lo == hi {
				lo, hi = cnt, cnt // no source inside: one run of the whole row
			}
			if lo > 0 {
				out = append(out, BoundaryRun{Row: int32(r), Off: 0, N: int32(lo), Dep: int32(l)})
			}
			if hi < cnt {
				out = append(out, BoundaryRun{Row: int32(r), Off: int32(hi), N: int32(cnt - hi), Dep: int32(l)})
			}
		}
	}
	return out
}
