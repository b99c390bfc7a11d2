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
	// Deprecated: ignored; a rank sweeps each tile's rows serially, as the
	// paper's generated code does. Leave it unset.
	Workers int
	// World, when non-nil, supplies a caller-owned world with exactly
	// Dist.NumProcs() ranks and no run in flight — how a run goes over
	// loopback TCP (mpi.NewTCPWorld), or one world serves run after run. It
	// is Reset under Net first, so results and Stats are bit-identical to a
	// fresh world's. Such a world has a mailbox per rank, so each rank is a
	// group of its own, stepped on its own goroutine. Nil runs on a fresh
	// in-process channel world, its ranks folded onto min(P, GOMAXPROCS)
	// executors whatever else the options say.
	World *mpi.World
	// Deprecated: ignored; a rank receives in its inbound-message table's
	// order (receive.go). Leave it unset.
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
	switch world := opt.World; {
	case world == nil:
		return p.runOn(mpi.NewGroupedWorld(p.Dist.NumProcs(), runtime.GOMAXPROCS(0), opt.Net), opt)
	case world.Size() != p.Dist.NumProcs():
		return nil, mpi.Stats{}, fmt.Errorf("exec: pooled world has %d ranks, program needs %d", world.Size(), p.Dist.NumProcs())
	case !world.Remote():
		// A remote world is per-process and single-use: it was just
		// constructed — possibly over a mesh seeded from a checkpoint, with
		// resent frames already queued that a Reset would destroy — and
		// resetting one process of a live mesh cannot be coordinated from
		// here.
		world.Reset(opt.Net)
	}
	return p.runOn(opt.World, opt)
}

// runOn runs the program on world, which is ready for the run. Everything
// that can refuse the run has: only now is the result allocated. Each rank
// writes its own points back, so on a remote world only this process's
// ranks' cells of the space are written (procrun merges the others). The
// groups build their ranks' states into disjoint slots of sts. The states go
// back to the Program (newRankState) only once every group is done: a payload
// of a group that is done may still wait in another group's mailbox.
func (p *Program) runOn(world *mpi.World, opt RunOptions) (*Global, mpi.Stats, error) {
	g := p.NewGlobal()
	if opt.Trace != nil {
		opt.Trace.reset(p.Dist.NumProcs())
	}
	sts := make([]*rankState, p.Dist.NumProcs())
	err := world.RunGroups(func(grp *mpi.Group) error { return p.runGroup(grp, g, sts, opt) })
	if opt.Trace != nil {
		opt.Trace.drain()
	}
	if err != nil {
		return nil, mpi.Stats{}, err
	}
	for r, st := range sts {
		if st != nil {
			p.idle[r].CompareAndSwap(nil, st)
		}
	}
	return g, world.Stats(), nil
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

	sends  []float64 // the send array: every payload of the run, in send order (pack.go)
	sendAt int       // the send array's cursor: the values packed so far this run
	out    []outMsg  // the outbox: the last fired slot's messages

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
// send array, the inbound claim state, a few reused buffers and the
// checkpoint state — a chain resumed from opt.Checkpoint.Resume starts at
// the snapshot. It takes the state the Program holds for the rank, if any
// (runOn returns one), as it is: every LDS cell a run reads, the run wrote
// before (the certifier's replay proves it), and the send array is written
// before it is sent. A run that finds none, one running concurrently, or one
// after a run that aborted, allocates its own.
func newRankState(p *Program, r int, opt RunOptions) (*rankState, error) {
	rp, err := p.Dist.Plan(r)
	if err != nil {
		return nil, err
	}
	st := p.idle[r].Swap(nil)
	if pr := p.Dist.Protocol(); st == nil {
		var sends int64
		for _, sl := range rp.Slots {
			for _, snd := range sl.Sends {
				sends += sl.Plan.Dirs[snd.Dir].Total
			}
		}
		st = &rankState{p: p, rank: r, RankPlan: rp, deps: pr.Deps, dps: pr.DPs, rowStep: pr.RowStep,
			la:    make([]float64, rp.Addr.Size()*int64(p.Width)),
			ev:    newRowEval(p.Kernel, p.Width, p.TS.T.N, len(pr.DPs), rp.MaxRow),
			init:  p.boundaryValues(r, rp),
			sends: make([]float64, sends*int64(p.Width)),
			out:   make([]outMsg, 0, len(rp.SendRank))}
	} else {
		st.t, st.cur, st.sendAt, st.tr, st.ckpt = 0, 0, 0, nil, nil
	}
	// A straggler's injected compute cost is its PointDelay, scaled.
	st.pointDelay = time.Duration(float64(opt.PointDelay) * opt.Net.Faults.SlowdownOf(r))
	st.crashAt = opt.Net.Faults.CrashTile(r)
	if opt.Trace != nil {
		st.tr = &rankTracer{tr: opt.Trace, rank: r}
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
// A pass steps each unfinished member once, in rank order (lex-time), by at
// most one tile each. A member never blocks and never sleeps: it takes only
// what has arrived, and modelled time — a tile's compute, a blocking send's
// wire cost, the drain before a snapshot or the chain's end, a crash's
// restart — is a deadline it is busy until, stepping only once it passes.
// After a pass in which no member moved, the group waits for a delivery to
// a parked member or its earliest deadline (mpi.Group.Wait). A message
// between members goes from the sender's outbox straight into the
// receiver's queue for its direction when the run models no wire cost.
type group struct {
	*mpi.Group
	g     *Global
	opt   RunOptions
	sts   []*rankState
	stage []int8                   // per member: what its next step does (claiming …)
	busy  []time.Time              // per member: the deadline it is busy until (zero: none)
	wire  []time.Time              // per member: when its last send through the world is due
	local [][]mpi.Queue[[]float64] // per member, per inbound direction: a sibling's payloads; nil when messages take the world's path
	waits []mpi.Stream             // per member parked in the last pass: the receive it waits for
	until time.Time                // the earliest deadline of a member busy in the last pass
	now   time.Time                // traced: when the member about to step starts
}

// A member's stage: what its next step does once it is not busy.
const (
	claiming = iota // drain for a snapshot or the chain's end, claim the slot's rows and fire it
	sending         // the compute is paid: issue the outbox
	closing         // the blocking sends are due: close the tile
	finished
)

// runGroup builds the machines of grp's ranks, into their slots of the run's
// sts, and runs them as a group.
func (p *Program) runGroup(grp *mpi.Group, g *Global, sts []*rankState, opt RunOptions) error {
	n := len(grp.Comms)
	gr := &group{Group: grp, g: g, opt: opt, sts: sts[grp.Comms[0].Rank():][:n], stage: make([]int8, n), busy: make([]time.Time, n), wire: make([]time.Time, n)}
	// A sibling's message is handed over in memory only while it costs
	// nothing on the wire; else it is due, counted and faulted as any other.
	if n > 1 && opt.Net.LinkLatency == 0 && opt.Net.PerValue == 0 && opt.Net.Faults == nil {
		gr.local = make([][]mpi.Queue[[]float64], n)
	}
	for i, c := range grp.Comms {
		st, err := newRankState(p, c.Rank(), opt)
		if err != nil {
			return err
		}
		gr.sts[i] = st
		if gr.local != nil {
			gr.local[i] = make([]mpi.Queue[[]float64], len(st.RecvRank))
		}
	}
	return gr.run()
}

// run steps the members until every chain is done. Sends are eager, so the
// group waits only when each unfinished member is busy or waits on a
// receive.
func (gr *group) run() error {
	gr.clock()
	for {
		moved, live := false, false
		gr.waits, gr.until = gr.waits[:0], time.Time{}
		for i := range gr.sts {
			if gr.stage[i] == finished {
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
			return nil
		}
		if !moved {
			gr.Wait(gr.waits, gr.until)
			gr.clock()
		}
	}
}

// clock reads the time into gr.now, where a traced member starts: else the
// end of the tile before (DESIGN.md, Tracing).
func (gr *group) clock() {
	if gr.opt.Trace != nil {
		gr.now = time.Now()
	}
}

// member returns rank r's index in the group, −1 when another group's.
func (gr *group) member(r int) int {
	if i := r - gr.Comms[0].Rank(); i >= 0 && i < len(gr.sts) {
		return i
	}
	return -1
}

// await leaves member i at stage s, busy for d when d > 0, and reports
// whether it is.
func (gr *group) await(i int, d time.Duration, s int8) bool {
	if gr.stage[i] = s; d > 0 {
		gr.busy[i] = time.Now().Add(d)
	}
	return d > 0
}

// step moves member i by at most one tile, from its stage on, for as long
// as it is not busy: it claims the rows next names as long as they are
// there, fires the slot once it has them all, issues the outbox and closes
// the tile. It carries out a due snapshot (quiesce the wire, snapshot, hand
// the result to Save), the chain's end and a planned crash (crash the
// machine, then sit out the restart). It reports whether the member moved.
func (gr *group) step(i int) (bool, error) {
	st, c := gr.sts[i], gr.Comms[i]
	if b := gr.busy[i]; !b.IsZero() && time.Now().Before(b) {
		if gr.until.IsZero() || b.Before(gr.until) {
			gr.until = b
		}
		return false, nil
	}
	gr.busy[i] = time.Time{}
	switch gr.stage[i] {
	case claiming:
		if st.snapshotDue() || st.done() {
			// Quiesced: everything sent so far is due and out of the
			// transport, so "sent before the snapshot" is exact.
			if gr.await(i, time.Until(gr.wire[i]), claiming) {
				return true, nil
			}
			if st.done() { // the chain is over: its values go back
				gr.stage[i] = finished
				if st.tr != nil {
					gr.now = st.tr.finish()
				}
				st.writeBack(gr.g)
				return true, nil
			}
			c.FlushWire()
			snap := st.snapshot()
			if save := gr.opt.Checkpoint.Save; save != nil {
				if err := save(snap); err != nil {
					return false, fmt.Errorf("exec: rank %d checkpoint at tile %d: %w", st.rank, snap.NextTile, err)
				}
			}
			gr.clock()
		}
		t, row := st.next()
		// A planned crash strikes once, before tile t's receive; every send
		// the rank issued still arrives, and the restart is an outage the
		// rank is busy for. Without in-memory checkpointing crash panics.
		if t == st.crashAt {
			st.crashAt = -1
			st.crash()
			gr.await(i, gr.opt.Net.Faults.RestartDelay, claiming)
			gr.clock()
			return true, nil
		}
		if st.tr != nil {
			st.tr.beginTile(gr.now)
		}
		moved := false
		for ; row >= 0; _, row = st.next() {
			dir := st.Msgs[row].Dir
			m, ok := gr.recv(i, st.RecvRank[dir], dir)
			if !ok {
				gr.waits = append(gr.waits, mpi.Stream{Rank: c.Rank(), Src: st.RecvRank[dir], Tag: dir})
				if st.tr != nil {
					if moved { // the rows claimed are this member's unpack
						gr.clock()
					}
					st.tr.park(gr.now)
				}
				return moved, nil
			}
			if st.tr != nil {
				st.tr.noteRecv(m.Delivered, time.Now())
			}
			if err := st.offer(row, m.Data); err != nil {
				return false, err
			}
			moved = true
		}
		// The tile fires: every dependence is satisfied.
		if gr.await(i, st.fire(), sending) {
			return true, nil
		}
		fallthrough
	case sending:
		for _, m := range st.out {
			var due time.Time // a sibling's payload is due at once
			if j := gr.member(m.dst); j >= 0 && gr.local != nil {
				gr.local[j][m.tag].Push(m.data)
				c.SendLocal(m.dst, len(m.data), gr.opt.Overlap)
			} else {
				due = c.SendOwned(m.dst, m.tag, m.data, gr.opt.Overlap)
				gr.wire[i] = due
			}
			if st.tr != nil {
				st.tr.noteSend(due)
			}
		}
		// A blocking sender is busy until its last message is due.
		if !gr.opt.Overlap && gr.await(i, time.Until(gr.wire[i]), closing) {
			return true, nil
		}
		fallthrough
	case closing:
		if st.tr != nil {
			gr.now = st.tr.endTile(st.Slots[st.t-1].Tile)
		}
		// A completed tile is forward progress even if every other rank is
		// parked waiting for its output — keep the watchdog quiet.
		c.NoteProgress()
		gr.stage[i] = claiming
	}
	return true, nil
}

// recv claims member i's next message from rank src on tag dir, if it has
// arrived: a sibling's from its FIFO, any other from the world.
func (gr *group) recv(i, src, dir int) (mpi.Message, bool) {
	if gr.local != nil && gr.member(src) >= 0 {
		q := &gr.local[i][dir]
		if q.Len() == 0 {
			return mpi.Message{}, false
		}
		return mpi.Message{Source: src, Tag: dir, Data: q.Pop()}, true
	}
	return gr.Comms[i].TryRecvMsg(src, dir)
}

// fire executes the current chain slot, once next reports none of its
// inbound rows missing: boundary-value injection, compute and pack into the
// outbox. Then the chain advances. It returns the slot's modelled compute
// cost, which the traced compute phase includes.
func (st *rankState) fire() time.Duration {
	t := st.t
	sl := &st.Slots[t]
	st.pBase = sl.PBase
	st.initPhasePlanned(sl, t)
	if st.tr != nil {
		st.tr.noteRecvDone()
	}
	cost := st.computePhasePlanned(sl.Plan, t)
	if st.tr != nil {
		st.tr.noteCompDone(cost)
	}
	st.pack(sl, t)
	st.t++
	return cost
}

// done reports whether the chain has fired its last slot.
func (st *rankState) done() bool { return st.t == int64(len(st.Slots)) }
