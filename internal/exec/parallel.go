package exec

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tilespace/internal/distrib"
	"tilespace/internal/ilin"
	"tilespace/internal/mpi"
	"tilespace/internal/verify"
)

// RunOptions selects the communication strategy for RunParallel.
type RunOptions struct {
	// Overlap switches the SEND phase to non-blocking Isends: after
	// computing a tile the rank issues one Isend per processor direction
	// and advances to the next tile immediately, draining the pending
	// requests at the end of its chain — the computation–communication
	// overlapping scheme of the paper's §6 (its ref. [8]), the same mode
	// simnet.Params.Overlap models. Results are bit-identical to the
	// blocking mode.
	Overlap bool
	// Net configures the runtime world: the deadlock watchdog and the
	// injected wire-cost model (see mpi.Options). The zero value means no
	// watchdog and no injected cost.
	Net mpi.Options
	// PointDelay injects CPU cost per iteration point into the compute
	// phase, the runtime counterpart of simnet.Params.IterTime (scaled the
	// same way as Net via simnet.Params.NetOptions). Real stencil kernels
	// take nanoseconds in-process, so without it every schedule looks
	// communication-bound; with it, compute–communication overlap is
	// measurable at the modelled ratio. Zero injects nothing.
	PointDelay time.Duration
	// Verify runs the static certifier (internal/verify) over the
	// compiled program before any rank starts: comm-set exactness,
	// deadlock-freedom and LDS bounds safety are proved by pure
	// arithmetic, and a disproof aborts the run with a counterexample
	// point instead of computing wrong values or hanging. The proof
	// covers both the blocking and the overlap mode.
	Verify bool
	// Trace, when non-nil, records a measured per-tile timeline (the
	// simnet.Event schema) plus per-rank phase metrics into the tracer;
	// see Tracer. Nil disables tracing entirely: the executor takes no
	// timestamps and allocates nothing for observability.
	Trace *Tracer
	// Faults injects a deterministic fault schedule into the run (see
	// mpi.FaultPlan): link delay/jitter and transient send failures perturb
	// the runtime's send paths, Slowdown multiplies this rank's PointDelay,
	// and Crash kills a rank at a chosen tile index — recoverable only
	// with Checkpoint, otherwise the run aborts. Results stay bit-identical
	// to a fault-free run under every fault class. Setting this also sets
	// Net.Faults; a plan already present in Net is used when this is nil.
	Faults *mpi.FaultPlan
	// Checkpoint enables tile-chain checkpointing: after every
	// CheckpointOptions.Every committed tiles a rank snapshots its chain
	// position, dirty LDS prefix and pending-send ledger, and a crashed
	// rank restarts from its last snapshot with unacknowledged sends
	// replayed. Nil disables checkpointing (no per-tile overhead).
	Checkpoint *CheckpointOptions
	// Workers sets the per-rank intra-tile worker pool size: each tile's
	// wavefronts of independent points (see distrib.NewLocalSchedule)
	// execute on Workers goroutines walking precompiled stride-1 runs,
	// with the dependence-carrying dimensions still walked in order.
	// 0 picks a GOMAXPROCS-aware default (GOMAXPROCS / ranks, at least
	// 1); 1 is the serial sweep. Results are bit-identical to the serial
	// path for every value — the setting only trades wall-clock.
	Workers int
	// World, when non-nil, supplies a pooled runtime world instead of
	// constructing a fresh one per run — the reuse seam the serve layer's
	// world pool relies on. It must have exactly Dist.NumProcs() ranks and
	// no run in flight; it is Reset under this run's Net options before
	// any rank starts, so a reused world behaves bit-identically to a
	// fresh one (internal/exec reuse tests assert Global and Stats). The
	// world is not torn down on return: the caller owns it and may hand it
	// to the next run. A world brings its own transport (mpi.NewTCPWorld for
	// loopback TCP); results and Stats are bit-identical across transports,
	// only WireStats differ. Nil runs on a fresh in-process channel world.
	World *mpi.World
	// ProcCheckpoint enables rank-process checkpointing for multi-process
	// deployments (cmd/tilerankd): a periodic snapshot of the rank's chain
	// position, LDS and wire stream counts that a relaunched process
	// restores to resume mid-conversation over the TCP mesh's resume
	// protocol. Mutually exclusive with Checkpoint (the in-process
	// tile-chain recovery). See ProcCheckpoint.
	ProcCheckpoint *ProcCheckpoint
	// Dynamic switches each rank's receive policy (see receive.go): the
	// whole chain's inbound messages are enumerated up front and, before
	// each tile, every message that has already arrived — for that tile or
	// a later one — is claimed and unpacked; the rank blocks only for the
	// current tile's missing messages. Tiles still fire in chain order and
	// all sends are asynchronous (Overlap is forced on). Results and
	// mpi.Stats are bit-identical to the static overlap mode; only timing
	// changes. Mutually exclusive with ProcCheckpoint.
	Dynamic bool
	// Firing, when non-nil, records the observed firing order for post-hoc
	// certification by verify.CheckDynamicOrder. The log is reset at run
	// start, so one log can be reused across runs.
	Firing *FiringLog
}

// RunParallel executes the program as the paper's generated data-parallel
// code: one mpi rank per processor, each running its tile chain with the
// §3.2 protocol — RECEIVE (one message per (predecessor tile, processor
// direction), delivered at the minsucc tile), compute over the clamped
// TTIS lattice reading/writing the LDS through map(), SEND (one message
// per processor direction packing the union region j'_k ≥ cc_k). Results
// are written back to the global data space via the computer-owns rule.
//
// It returns the global array and the runtime's traffic statistics.
// RunParallel uses blocking sends; see RunParallelOpts for the overlapped
// mode and watchdog/cost injection.
func (p *Program) RunParallel() (*Global, mpi.Stats, error) {
	return p.RunParallelOpts(RunOptions{})
}

// RunParallelOpts is RunParallel with an explicit execution strategy.
func (p *Program) RunParallelOpts(opt RunOptions) (*Global, mpi.Stats, error) {
	// One fault plan drives both layers: the runtime injects the wire
	// perturbations, the executor consumes slowdown and crash points.
	if opt.Faults != nil {
		opt.Net.Faults = opt.Faults
	} else {
		opt.Faults = opt.Net.Faults
	}
	if opt.Verify {
		if _, err := verify.Certify(p.TS, p.Dist); err != nil {
			return nil, mpi.Stats{}, err
		}
	}
	lo, hi, err := p.TS.Nest.BoundingBox()
	if err != nil {
		return nil, mpi.Stats{}, err
	}
	g := NewGlobal(lo, hi, p.Width)

	if opt.ProcCheckpoint != nil && opt.Checkpoint != nil {
		return nil, mpi.Stats{}, fmt.Errorf("exec: ProcCheckpoint and Checkpoint are mutually exclusive")
	}
	if opt.Dynamic {
		if opt.ProcCheckpoint != nil {
			return nil, mpi.Stats{}, fmt.Errorf("exec: Dynamic and ProcCheckpoint are mutually exclusive (a process snapshot's stream counts assume the static claim order)")
		}
		// Dynamic sends are always asynchronous: forcing the overlap
		// primitive here keeps dispatchSend on the Isend path and makes
		// Stats bit-identical to a static Overlap run.
		opt.Overlap = true
	}
	if opt.Firing != nil {
		opt.Firing.reset()
	}
	world := opt.World
	if world != nil {
		if world.Size() != p.Dist.NumProcs() {
			return nil, mpi.Stats{}, fmt.Errorf("exec: pooled world has %d ranks, program needs %d", world.Size(), p.Dist.NumProcs())
		}
		// A remote world is per-process and single-use: it was just
		// constructed — possibly with restored checkpoint stream state a
		// Reset would destroy — and resetting one process of a live mesh
		// cannot be coordinated from here.
		if !world.Remote() {
			world.Reset(opt.Net)
		}
	} else {
		world = mpi.NewWorldOpts(p.Dist.NumProcs(), opt.Net)
	}
	if opt.Trace != nil {
		opt.Trace.reset(p.Dist.NumProcs())
	}
	var (
		mu     sync.Mutex
		runErr error
	)
	werr := world.RunE(func(c *mpi.Comm) {
		if err := p.runRank(c, g, opt); err != nil {
			mu.Lock()
			if runErr == nil {
				runErr = err
			}
			mu.Unlock()
		}
	})
	if opt.Trace != nil {
		opt.Trace.drain()
	}
	if runErr != nil {
		return nil, mpi.Stats{}, runErr
	}
	if werr != nil {
		return nil, mpi.Stats{}, werr
	}
	return g, world.Stats(), nil
}

// rankState caches per-rank compiled pieces.
type rankState struct {
	p    *Program
	c    *mpi.Comm
	rank int

	la   []float64 // the LDS backing array, Width values per cell
	addr *distrib.Addresser

	deps []ilin.Vec // original dependence vectors d_l
	dps  []ilin.Vec // transformed d'_l

	// Communication tables, constant over the whole chain (hoisted out of
	// the per-tile phases): for each processor-direction index i into
	// Dist.DM, sendRank[i]/recvRank[i] is the rank of pid ± DM[i] (−1 when
	// unmapped), dmFulls[i] is the direction with the mapping dimension
	// re-inserted, and dirShift[i] is the constant pack→unpack flat-address
	// shift (Addresser.DirShift). dsOrder lists tile-dependence indices in
	// receive-processing order; dsDmIdx maps each to its DM index (−1 for
	// the intra-processor direction). The DM index doubles as the message
	// tag, exactly as in the reference executor.
	sendRank []int
	recvRank []int
	dmFulls  []ilin.Vec
	dirShift []int64
	dsOrder  []int
	dsDmIdx  []int

	// Compiled-plan state. in is the inbound-message table of receive.go;
	// dynamic selects its policy.
	in        inbox
	dynamic   bool
	plans     *planCache
	tilePlans []*tilePlan // plan of each chain slot, for writeBack
	chainStep int64       // flat-address step per chain slot
	pBase     ilin.Vec    // P·j^S of the current tile
	jBuf      ilin.Vec    // reused global iteration point
	srcBuf    ilin.Vec    // reused dependence source point
	initBuf   []float64   // reused Initial value buffer
	reads     [][]float64 // reused kernel read views
	predBuf   ilin.Vec    // reused predecessor tile coordinate
	roBuf     []int64     // reused read-offset cursors (inline local runs)

	// Intra-tile parallelism (workers > 1 only): the sequential dimension
	// set of the dependence cone and the rank's worker pool.
	workers int
	seqDims []int
	wpool   *workerPool

	pool bufPool // recycled message buffers

	tileCounts map[int64]int64 // interior-tile detection cache
	tileIdx    ilin.BoxIndexer // perfect tile-coordinate key for it

	overlap    bool
	pointDelay time.Duration

	// tr is this rank's measured-timeline recorder; nil when tracing is
	// off, and every instrumentation site is guarded on that.
	tr *rankTracer

	// faults is the run's fault schedule (never nil to callers: all
	// FaultPlan methods are nil-safe); ckpt is the crash-recovery state,
	// nil when checkpointing is off.
	faults *mpi.FaultPlan
	ckpt   *ckptState

	// In-flight Isends in issue order. The NIC delivers them FIFO and
	// noteSendDone counts completions from its goroutine, so reapPending
	// can drop the completed prefix without blocking; Waitall at chain end
	// drains the rest.
	pending   []*mpi.Request
	sendsDone atomic.Int64
	reaped    int
	noteFn    func()
}

// newRankState builds a rank's executor state: LDS, dependence tables,
// communication tables and the plan cache. c may be nil
// for tests and benchmarks that drive individual phases directly.
func newRankState(p *Program, c *mpi.Comm, r int, opt RunOptions) *rankState {
	d := p.Dist
	n := p.TS.T.N
	st := &rankState{
		p: p, c: c, rank: r,
		addr:       d.Addresser(r),
		tileCounts: map[int64]int64{},
		tileIdx:    ilin.NewBoxIndexer(p.TS.TileLo, p.TS.TileHi),
		dynamic:    opt.Dynamic,
		overlap:    opt.Overlap,
		pointDelay: opt.PointDelay,
		faults:     opt.Faults,
	}
	// A straggler's injected compute cost is its PointDelay, scaled.
	if s := opt.Faults.SlowdownOf(r); s > 1 {
		st.pointDelay = time.Duration(float64(st.pointDelay) * s)
	}
	if opt.Checkpoint != nil {
		every := opt.Checkpoint.Every
		if every < 1 {
			every = 1
		}
		st.ckpt = &ckptState{every: every}
	}
	st.noteFn = st.noteSendDone
	if opt.Trace != nil {
		st.tr = newRankTracer(opt.Trace, r)
	}
	st.la = make([]float64, st.addr.Size()*int64(p.Width))
	q := p.TS.Nest.Q()
	for l := 0; l < q; l++ {
		st.deps = append(st.deps, p.TS.Nest.Dep(l))
		st.dps = append(st.dps, p.TS.DP.Col(l))
	}
	st.reads = make([][]float64, q)
	st.initBuf = make([]float64, p.Width)
	st.jBuf = make(ilin.Vec, n)
	st.srcBuf = make(ilin.Vec, n)
	st.pBase = make(ilin.Vec, n)
	st.predBuf = make(ilin.Vec, n)
	st.roBuf = make([]int64, q)
	st.buildCommTables()
	st.plans = newPlanCache()
	st.in.rows = make([][]int, len(d.DM))
	st.in.heads = make([]int, len(d.DM))
	st.tilePlans = make([]*tilePlan, d.ChainLen[r])
	st.chainStep = st.addr.ChainStep()
	st.workers = effectiveWorkers(opt.Workers, d.NumProcs())
	if st.workers > 1 {
		st.seqDims = distrib.SeqDims(p.TS.DP)
	}
	return st
}

// runRank is the rank body: the one loop every mode runs. Per tile it does
// RECEIVE (receive.go), boundary-value injection, compute and SEND.
func (p *Program) runRank(c *mpi.Comm, g *Global, opt RunOptions) error {
	r := c.Rank()
	d := p.Dist
	st := newRankState(p, c, r, opt)
	if st.workers > 1 {
		st.wpool = newWorkerPool(st, st.workers)
		// Deferred so every exit path — normal completion, error return,
		// abort panic — winds the pool down without leaking goroutines.
		defer st.wpool.close()
	}
	crashAt := st.faults.CrashTile(r)

	start := int64(0)
	if pc := opt.ProcCheckpoint; pc != nil && pc.Resume != nil && pc.Resume.Rank == r {
		var err error
		if start, err = st.restoreProcSnapshot(pc.Resume); err != nil {
			return err
		}
	}
	st.in.next = start
	fired := start // chain slots below fired are in the firing log
	for t := start; t < d.ChainLen[r]; t++ {
		// A planned crash fires at the tile boundary, before tile t's
		// receive — the first incarnation only. With checkpointing the
		// rank rewinds to its last snapshot and re-executes; without,
		// crash() panics and the world aborts.
		if t == crashAt && (st.ckpt == nil || !st.ckpt.crashed) {
			t = st.crash(t)
		}
		tile := d.TileAt(r, t)
		if st.tr != nil {
			st.tr.beginTile()
		}
		pl := st.planFor(tile)
		st.tilePlans[t] = pl
		if err := st.receive(t); err != nil {
			return err
		}
		mulVecInto(st.pBase, p.TS.T.P, tile)
		st.initPhasePlanned(pl, tile, t)
		if st.tr != nil {
			st.tr.noteRecvDone()
		}
		// The tile fires: every dependence is satisfied. Keep-first across
		// crash rewinds — see FiringLog.
		if opt.Firing != nil && t >= fired {
			opt.Firing.note(r, t, tile)
			fired = t + 1
		}
		if st.wpool != nil {
			st.computePhaseParallel(pl, t)
		} else {
			st.computePhasePlanned(pl, t)
		}
		if st.tr != nil {
			st.tr.noteCompDone()
		}
		if err := st.sendPhasePlanned(tile, pl, t); err != nil {
			return err
		}
		if st.tr != nil {
			st.tr.endTile(tile)
		}
		// A completed tile is forward progress even if every other rank is
		// parked waiting for its output — keep the watchdog quiet.
		c.NoteProgress()
		st.commitTile(t)
		if pc := opt.ProcCheckpoint; pc != nil && pc.Save != nil && (t+1)%pc.every() == 0 && t+1 < d.ChainLen[r] {
			if err := st.saveProcSnapshot(pc, t+1); err != nil {
				return err
			}
		}
	}
	if err := st.checkReplayDrained(); err != nil {
		return err
	}
	// Overlap mode: every send so far was an Isend whose transfer runs on
	// the rank's NIC; make sure all of them completed before declaring the
	// chain done (receivers need the data, and Stats must be final).
	mpi.Waitall(st.pending)
	if st.tr != nil {
		st.tr.finish(&st.pool, st.wpool)
	}
	st.writeBack(g)
	return nil
}

// buildCommTables precomputes the per-rank communication tables; the
// reference executor recomputed all of them (PidOf, Rank, dm.String map
// lookups, the DS sort) once per tile per direction.
func (st *rankState) buildCommTables() {
	d := st.p.Dist
	pid := d.Pids[st.rank]
	nd := len(d.DM)
	st.sendRank = make([]int, nd)
	st.recvRank = make([]int, nd)
	st.dmFulls = make([]ilin.Vec, nd)
	st.dirShift = make([]int64, nd)
	for i, dm := range d.DM {
		st.sendRank[i] = -1
		if r, ok := d.Rank(pid.Add(dm)); ok {
			st.sendRank[i] = r
		}
		st.recvRank[i] = -1
		if r, ok := d.Rank(pid.Sub(dm)); ok {
			st.recvRank[i] = r
		}
		st.dmFulls[i] = st.dmFull(dm)
		st.dirShift[i] = st.addr.DirShift(st.dmFulls[i])
	}
	// Two tile dependencies with the same d^m but different m-components
	// deliver on one FIFO stream and can target the same receiving tile;
	// the sender emits the lower-m predecessor's message first, so process
	// receives in descending d^S_m (= ascending predecessor m) order.
	st.dsOrder = make([]int, len(st.p.TS.DS))
	for i := range st.dsOrder {
		st.dsOrder[i] = i
	}
	sort.SliceStable(st.dsOrder, func(a, b int) bool {
		return st.p.TS.DS[st.dsOrder[a]][d.M] > st.p.TS.DS[st.dsOrder[b]][d.M]
	})
	st.dsDmIdx = make([]int, len(st.p.TS.DS))
	for i, dS := range st.p.TS.DS {
		st.dsDmIdx[i] = -1
		dm := d.DmOf(dS)
		if dm.IsZero() {
			continue
		}
		for k, v := range d.DM {
			if v.Equal(dm) {
				st.dsDmIdx[i] = k
				break
			}
		}
	}
}

// dmFull re-inserts the mapping dimension (as 0) into a processor
// direction.
func (st *rankState) dmFull(dm ilin.Vec) ilin.Vec {
	m := st.p.Dist.M
	out := make(ilin.Vec, 0, len(dm)+1)
	out = append(out, dm[:m]...)
	out = append(out, 0)
	return append(out, dm[m:]...)
}

// subInto computes dst = a − b without allocating.
func subInto(dst, a, b ilin.Vec) {
	for k := range dst {
		dst[k] = a[k] - b[k]
	}
}

// chargePointDelay injects the modelled per-point CPU cost.
func (st *rankState) chargePointDelay(pts int64) {
	if st.pointDelay > 0 {
		time.Sleep(time.Duration(pts) * st.pointDelay)
	}
}

// noteSendDone runs on the NIC goroutine, in issue order, once per
// completed Isend (registered via Request.OnComplete).
func (st *rankState) noteSendDone() { st.sendsDone.Add(1) }

// recv is the executor's blocking receive: plain Recv when
// tracing is off, and the timestamped RecvMsg — splitting blocked wait
// from mailbox queueing via Message.Delivered — when it is on.
func (st *rankState) recv(src, tag int) []float64 {
	if st.tr == nil {
		return st.c.Recv(src, tag)
	}
	t0 := time.Now()
	m := st.c.RecvMsg(src, tag)
	now := time.Now()
	st.tr.noteRecv(now.Sub(t0), now.Sub(m.Delivered), len(m.Data))
	return m.Data
}

// reapPending drops the completed prefix of the in-flight Isend list. The
// NIC completes requests in issue order, so the completion count alone
// identifies how many leading entries are done — no per-request Test.
func (st *rankState) reapPending() {
	done := int(st.sendsDone.Load()) - st.reaped
	if done <= 0 {
		return
	}
	if done > len(st.pending) {
		done = len(st.pending)
	}
	st.pending = st.pending[:copy(st.pending, st.pending[done:])]
	st.reaped += done
}

// interiorTile reports whether every read of every point of the tile
// resolves inside the iteration space, so the Initial injection can be
// skipped: the tile and all its D^S predecessors must be full.
func (st *rankState) interiorTile(tile ilin.Vec) bool {
	if !st.tileFull(tile) {
		return false
	}
	for _, dS := range st.p.TS.DS {
		subInto(st.predBuf, tile, dS)
		if !st.p.TS.ValidTile(st.predBuf) || !st.tileFull(st.predBuf) {
			return false
		}
	}
	return true
}

// tileFull reports whether tile s contains all TileSize lattice points,
// caching counts under the perfect BoxIndexer key (the reference executor
// keyed this cache by Vec.String, allocating per probe).
func (st *rankState) tileFull(s ilin.Vec) bool {
	key, ok := st.tileIdx.Index(s)
	if !ok {
		return false
	}
	cnt, ok := st.tileCounts[key]
	if !ok {
		cnt = st.p.TS.CountTilePoints(s, nil)
		st.tileCounts[key] = cnt
	}
	return cnt == st.p.TS.T.TileSize
}

// writeBack copies this rank's computed values to the global data space
// via the computer-owns rule. Ranks own disjoint iteration points, so the
// concurrent writes touch disjoint memory. Each chain slot's stored offset
// table is replayed.
func (st *rankState) writeBack(g *Global) {
	w := st.p.Width
	n := st.p.TS.T.N
	for t, pl := range st.tilePlans {
		tile := st.p.Dist.TileAt(st.rank, int64(t))
		if pl == nil {
			// A chain resumed from a process snapshot skipped the tiles
			// before its restore point; their LDS values are restored, and
			// the (cached, shape-keyed) plan recovers their offset tables.
			pl = st.planFor(tile)
		}
		mulVecInto(st.pBase, st.p.TS.T.P, tile)
		tOff := int64(t) * st.chainStep
		for i := 0; i < pl.npts; i++ {
			uz := pl.uz[i*n : i*n+n]
			for k := 0; k < n; k++ {
				st.jBuf[k] = st.pBase[k] + uz[k]
			}
			cell := (pl.writeOff[i] + tOff) * int64(w)
			g.Set(st.jBuf, st.la[cell:cell+int64(w)])
		}
	}
}
