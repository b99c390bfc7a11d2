package exec

import (
	"fmt"
	"runtime"
	"time"

	"tilespace/internal/distrib"
	"tilespace/internal/ilin"
	"tilespace/internal/mpi"
)

// RunOptions selects the communication strategy for RunParallelOpts.
type RunOptions struct {
	// Overlap switches the SEND phase to non-blocking Isends, waited for at
	// the end of the chain — the computation–communication overlapping of
	// the paper's §6 (its ref. [8]), as simnet.Params.Overlap models it.
	// Results are bit-identical to the blocking mode.
	Overlap bool
	// Net configures the runtime world (mpi.Options): watchdog, injected
	// wire cost and fault plan. Of Net.Faults the executor consumes
	// Slowdown (a scaled PointDelay) and Crash (recoverable only with an
	// in-memory Checkpoint, else the run aborts). Results stay bit-identical
	// to a fault-free run under every fault class.
	Net mpi.Options
	// PointDelay injects CPU cost per iteration point into the compute
	// phase, the runtime counterpart of simnet.Params.IterTime, so that
	// compute–communication overlap is measurable at the modelled ratio
	// (real stencil kernels take nanoseconds). Zero injects nothing.
	PointDelay time.Duration
	// Trace, when non-nil, records a measured per-tile timeline plus
	// per-rank phase metrics (Tracer). Nil disables tracing entirely.
	Trace *Tracer
	// Checkpoint enables tile-chain checkpointing (checkpoint.go): kept in
	// memory, a snapshot lets a crashed rank restart in-process; handed to
	// Save, it lets a relaunched rank process resume (cmd/tilerankd). Nil
	// disables it (no per-tile overhead).
	Checkpoint *CheckpointOptions
	// Workers is ignored: a rank sweeps each tile's rows serially, as the
	// paper's generated code does, and the rank is the only unit of
	// parallelism.
	//
	// Deprecated: the executor has no intra-tile worker pool; leave it unset.
	Workers int
	// World, when non-nil, supplies a caller-owned world with exactly
	// Dist.NumProcs() ranks and no run in flight — how a run goes over
	// loopback TCP (mpi.NewTCPWorld), or one world serves run after run. It
	// is Reset under Net first, so results and Stats are bit-identical to a
	// fresh world's, and every rank runs on its own goroutine. Nil runs on a
	// fresh in-process channel world, its ranks folded onto executors.
	World *mpi.World
	// Dynamic is ignored: a rank receives each slot's messages in the
	// order its inbound-message table names them, as the paper's generated
	// code does (see receive.go).
	//
	// Deprecated: the executor has one receive policy; leave it unset.
	Dynamic bool
}

// RunParallelOpts executes the program as the paper's generated
// data-parallel code: one mpi rank per processor, each running its tile
// chain with the §3.2 protocol — RECEIVE (one message per (predecessor
// tile, processor direction), delivered at the minsucc tile), compute over
// the clamped TTIS lattice reading/writing the LDS through map(), SEND (one
// message per processor direction packing the union region j'_k ≥ cc_k) —
// as a rank machine that an executor goroutine steps with the others of its
// block (group). Results are written back to the global data space via the
// computer-owns rule. The zero RunOptions sends blocking, on a fresh
// in-process world.
//
// It returns the global array and the runtime's traffic statistics.
func (p *Program) RunParallelOpts(opt RunOptions) (*Global, mpi.Stats, error) {
	if err := opt.Net.Faults.Validate(); err != nil {
		return nil, mpi.Stats{}, err
	}
	if ck := opt.Checkpoint; ck != nil && ck.Resume != nil {
		if r, n := ck.Resume.Rank, p.Dist.NumProcs(); r < 0 || r >= n {
			return nil, mpi.Stats{}, fmt.Errorf("exec: Checkpoint.Resume is a snapshot of rank %d, the program has ranks 0..%d", r, n-1)
		}
	}
	world := opt.World
	if world != nil && world.Size() != p.Dist.NumProcs() {
		return nil, mpi.Stats{}, fmt.Errorf("exec: pooled world has %d ranks, program needs %d", world.Size(), p.Dist.NumProcs())
	}
	if world != nil {
		// A remote world is per-process and single-use: it was just
		// constructed — possibly over a mesh seeded from a checkpoint, with
		// resent frames already queued that a Reset would destroy — and
		// resetting one process of a live mesh cannot be coordinated from
		// here.
		if !world.Remote() {
			world.Reset(opt.Net)
		}
	} else {
		world = mpi.NewGroupedWorld(p.Dist.NumProcs(), executors(p.Dist.NumProcs(), opt), opt.Net)
	}
	return p.runOn(world, opt)
}

// runOn runs the program on world, which is ready for the run. Everything
// that can refuse the run has: only now is the result allocated.
func (p *Program) runOn(world *mpi.World, opt RunOptions) (*Global, mpi.Stats, error) {
	g := NewGlobal(p.lo, p.hi, p.Width)
	if opt.Trace != nil {
		opt.Trace.reset(p.Dist.NumProcs())
	}
	err := world.RunGroups(func(grp *mpi.Group) error { return p.runGroup(grp, g, opt) })
	if opt.Trace != nil {
		opt.Trace.drain()
	}
	if err != nil {
		return nil, mpi.Stats{}, err
	}
	return g, world.Stats(), nil
}

// executors is E, the groups a run on a fresh world folds its n ranks into:
// min(n, GOMAXPROCS), or n when the run models time — a PointDelay, wire
// cost, fault or checkpoint sleeps or quiesces a rank, stalling its group.
func executors(n int, opt RunOptions) int {
	if opt.PointDelay > 0 || opt.Net.LinkLatency > 0 || opt.Net.PerValue > 0 || opt.Net.Faults != nil || opt.Checkpoint != nil {
		return n
	}
	return min(n, runtime.GOMAXPROCS(0))
}

// rankState is one rank's machine for one run: the distribution's compiled
// chain (embedded, shared and read-only) plus everything the run mutates. It
// makes no runtime call. A group steps it — next names the inbound row the
// current slot waits for, offer claims a row, fire executes the slot into the
// outbox — and a crash or a snapshot is a transition of the same state.
type rankState struct {
	p    *Program
	rank int
	*distrib.RankPlan

	la []float64 // the LDS backing array, Width values per cell

	deps []ilin.Vec // original dependence vectors d_l
	dps  []ilin.Vec // transformed d'_l

	// t is the chain slot the rank fires next; cur is the claim cursor of
	// the inbound-message table: the rows below it are claimed (receive.go).
	t       int64
	cur     int
	pBase   ilin.Vec  // P·j^S of the current tile (the slot's, not a copy)
	rowStep ilin.Vec  // the global point's step along a TTIS row
	ev      *rowEval  // the row-evaluation scratch
	init    *rankInit // the rank's boundary values, compiled once per Program

	pool bufPool  // recycled message buffers
	out  []outMsg // the outbox: the last fired slot's messages (pack.go)

	pointDelay time.Duration
	crashAt    int64 // the planned crash's slot (Net.Faults), −1 once it struck

	// tr is this rank's measured-timeline recorder; nil when tracing is
	// off, and every instrumentation site is guarded on that.
	tr *rankTracer

	// ckpt is the checkpoint/recovery state, nil when checkpointing is off.
	ckpt *ckptState
}

// newRankState builds a rank's per-run state on top of its compiled chain
// (compiled here on the distribution's first use of the rank): the LDS, the
// inbound claim state, a few reused buffers and the checkpoint state — a
// chain resumed from opt.Checkpoint.Resume starts at the snapshot. The
// memory of a finished run's state is reused (group.run), the LDS zeroed.
func newRankState(p *Program, r int, opt RunOptions) (*rankState, error) {
	rp, err := p.Dist.Plan(r)
	if err != nil {
		return nil, err
	}
	st, _ := p.idle[r].Get().(*rankState)
	if pr := p.Dist.Protocol(); st == nil {
		st = &rankState{p: p, rank: r, RankPlan: rp, deps: pr.Deps, dps: pr.DPs, rowStep: pr.RowStep,
			la:   make([]float64, rp.Addr.Size()*int64(p.Width)),
			ev:   newRowEval(p.Kernel, p.Width, p.TS.T.N, len(pr.DPs), rp.MaxRow),
			init: p.boundaryValues(r, rp),
			out:  make([]outMsg, 0, len(rp.SendRank))}
	} else {
		clear(st.la)
		st.t, st.cur, st.tr, st.ckpt, st.pool.hits, st.pool.misses = 0, 0, nil, nil, 0, 0
	}
	st.pointDelay, st.crashAt = opt.PointDelay, opt.Net.Faults.CrashTile(r)
	// A straggler's injected compute cost is its PointDelay, scaled.
	if s := opt.Net.Faults.SlowdownOf(r); s > 1 {
		st.pointDelay = time.Duration(float64(st.pointDelay) * s)
	}
	if opt.Trace != nil {
		st.tr = newRankTracer(opt.Trace, r)
	}
	if opt.Checkpoint != nil {
		if st.ckpt, err = st.newCkptState(opt.Checkpoint); err != nil {
			return nil, err
		}
		// A resumed chain starts at its snapshot; its earlier incarnation
		// claimed every row of the slots before.
		st.t = st.ckpt.snap.NextTile
		for st.cur < len(rp.Msgs) && rp.Msgs[st.cur].T < st.t {
			st.cur++
		}
	}
	return st, nil
}

// group is one executor: a block of rank machines stepped on one goroutine
// (mpi.World.RunGroups), and the one place the executor calls the runtime.
// A pass steps each unfinished member once, in rank order (lex-time), firing
// at most one tile each. A message between members goes from the sender's
// outbox straight into the receiver's queue for its direction. A group of
// one blocks in Recv; a larger one takes only what has arrived, and after a
// pass in which no member moved sleeps until a delivery reaches one.
type group struct {
	*mpi.Group
	g     *Global
	opt   RunOptions
	sts   []*rankState
	local [][]mpi.Queue[[]float64] // per member, per inbound direction: a sibling's payloads
	waits []mpi.Stream             // per member parked in the last pass: the receive it waits for
}

// runGroup builds the machines of grp's ranks and runs them as a group.
func (p *Program) runGroup(grp *mpi.Group, g *Global, opt RunOptions) error {
	n := len(grp.Comms)
	gr := &group{Group: grp, g: g, opt: opt, sts: make([]*rankState, n), local: make([][]mpi.Queue[[]float64], n)}
	for i, c := range grp.Comms {
		st, err := newRankState(p, c.Rank(), opt)
		if err != nil {
			return err
		}
		gr.sts[i] = st
		if n > 1 {
			gr.local[i] = make([]mpi.Queue[[]float64], len(st.RecvRank))
		}
		if st.done() {
			gr.finish(i)
		}
	}
	return gr.run()
}

// run steps the members until every chain is done. Sends are eager, so the
// group sleeps only when each unfinished member waits on a receive — the
// condition a rank on its own goroutine blocks on.
func (gr *group) run() error {
	for {
		moved, live := false, false
		gr.waits = gr.waits[:0]
		for i, st := range gr.sts {
			if st.done() {
				continue
			}
			live = true
			m, err := gr.step(i)
			if err != nil {
				return err
			}
			moved = moved || m
		}
		if !live {
			for _, st := range gr.sts {
				st.p.idle[st.rank].Put(st) // no run refers to it any more
			}
			return nil
		}
		if !moved {
			gr.Wait(gr.waits)
		}
	}
}

// member returns rank r's index in the group, −1 when another group's.
func (gr *group) member(r int) int {
	if i := r - gr.Comms[0].Rank(); i >= 0 && i < len(gr.sts) {
		return i
	}
	return -1
}

// step moves member i by at most one tile: it claims the rows next names as
// long as they are there and fires the slot once it has them all. It carries
// out a planned crash (sit out the restart, then crash the machine) and a
// due snapshot (quiesce the wire, snapshot, hand the result to Save). It
// reports whether the member moved.
func (gr *group) step(i int) (bool, error) {
	st, c := gr.sts[i], gr.Comms[i]
	t, row := st.next()
	// A planned crash strikes once, before tile t's receive; every send the
	// rank issued still arrives, and the outage is fault activity to the
	// watchdog. Without in-memory checkpointing crash panics.
	if t == st.crashAt {
		st.crashAt = -1
		c.FaultSleep(gr.opt.Net.Faults.RestartDelay)
		st.crash()
		return true, nil
	}
	if st.tr != nil {
		st.tr.beginTile()
	}
	moved := false
	for ; row >= 0; _, row = st.next() {
		var t0 time.Time
		if st.tr != nil {
			t0 = time.Now()
		}
		dir := st.Msgs[row].Dir
		m, ok := gr.recv(i, st.RecvRank[dir], dir)
		if !ok {
			gr.waits = append(gr.waits, mpi.Stream{Rank: c.Rank(), Src: st.RecvRank[dir], Tag: dir})
			if st.tr != nil {
				st.tr.park()
			}
			return moved, nil
		}
		if st.tr != nil {
			// Blocked wait apart from time spent queued in the mailbox.
			now := time.Now()
			st.tr.noteRecv(now.Sub(t0), m.Delivered, now, len(m.Data))
		}
		if err := st.offer(row, m.Data); err != nil {
			return false, err
		}
		pool := &st.pool // but a sibling's buffer returns to the sibling's
		if j := gr.member(m.Source); j >= 0 {
			pool = &gr.sts[j].pool
		}
		pool.put(m.Data)
		moved = true
	}
	// The tile fires: every dependence is satisfied.
	st.fire()
	for _, m := range st.out {
		if j := gr.member(m.dst); j >= 0 {
			gr.local[j][m.tag].Push(m.data)
			c.SendLocal(m.dst, len(m.data), gr.opt.Overlap)
		} else if gr.opt.Overlap {
			c.IsendOwned(m.dst, m.tag, m.data)
		} else {
			c.SendOwned(m.dst, m.tag, m.data)
		}
		if st.tr != nil {
			st.tr.noteSend(len(m.data), c.PendingSends())
		}
	}
	if st.tr != nil {
		st.tr.endTile(st.Slots[t].Tile)
	}
	// A completed tile is forward progress even if every other rank is
	// parked waiting for its output — keep the watchdog quiet.
	c.NoteProgress()
	if st.snapshotDue() {
		// Quiesced: everything sent so far is due and out of the
		// transport, so "sent before the snapshot" is exact.
		c.WaitSends()
		c.FlushWire()
		snap := st.snapshot()
		if save := gr.opt.Checkpoint.Save; save != nil {
			if err := save(snap); err != nil {
				return false, fmt.Errorf("exec: rank %d checkpoint at tile %d: %w", st.rank, snap.NextTile, err)
			}
		}
	}
	if st.done() {
		gr.finish(i)
	}
	return true, nil
}

// recv claims member i's next message from rank src on tag dir: a sibling's
// from its FIFO, another group's from the world — waiting for it in a group
// of one, else only if it has arrived.
func (gr *group) recv(i, src, dir int) (mpi.Message, bool) {
	if gr.member(src) >= 0 {
		q := &gr.local[i][dir]
		if q.Len() == 0 {
			return mpi.Message{}, false
		}
		return mpi.Message{Source: src, Tag: dir, Data: q.Pop()}, true
	}
	if len(gr.sts) == 1 {
		return gr.Comms[i].RecvMsg(src, dir), true
	}
	return gr.Comms[i].TryRecvMsg(src, dir)
}

// finish ends member i's chain once its last Isend is due, and writes its
// values back.
func (gr *group) finish(i int) {
	st := gr.sts[i]
	gr.Comms[i].WaitSends()
	if st.tr != nil {
		st.tr.finish(&st.pool)
	}
	st.writeBack(gr.g)
}

// fire executes the current chain slot, once next reports none of its
// inbound rows missing: boundary-value injection, compute and pack into the
// outbox. Then the chain advances.
func (st *rankState) fire() {
	t := st.t
	sl := &st.Slots[t]
	st.pBase = sl.PBase
	st.initPhasePlanned(sl, t)
	if st.tr != nil {
		st.tr.noteRecvDone()
	}
	st.computePhasePlanned(sl.Plan, t)
	if st.tr != nil {
		st.tr.noteCompDone()
	}
	st.pack(sl, t)
	st.t++
}

// done reports whether the chain has fired its last slot.
func (st *rankState) done() bool { return st.t == int64(len(st.Slots)) }

// chargePointDelay injects the modelled per-point CPU cost.
func (st *rankState) chargePointDelay(pts int64) {
	if st.pointDelay > 0 {
		time.Sleep(time.Duration(pts) * st.pointDelay)
	}
}
