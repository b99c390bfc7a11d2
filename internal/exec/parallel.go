package exec

import (
	"fmt"
	"sync"
	"time"

	"tilespace/internal/distrib"
	"tilespace/internal/ilin"
	"tilespace/internal/mpi"
)

// RunOptions selects the communication strategy for RunParallelOpts.
type RunOptions struct {
	// Overlap switches the SEND phase to non-blocking Isends: after
	// computing a tile the rank issues one Isend per processor direction
	// and advances to the next tile immediately, waiting for the pending
	// sends at the end of its chain — the computation–communication
	// overlapping scheme of the paper's §6 (its ref. [8]), the same mode
	// simnet.Params.Overlap models. Results are bit-identical to the
	// blocking mode.
	Overlap bool
	// Net configures the runtime world: the deadlock watchdog, the injected
	// wire-cost model and the deterministic fault schedule (see mpi.Options).
	// Of Net.Faults the runtime injects link delay/jitter and transient send
	// failures into its send paths; the executor consumes the rest: Slowdown
	// multiplies a rank's PointDelay, and Crash kills a rank at a chosen tile
	// index — recoverable only with an in-memory Checkpoint, otherwise the
	// run aborts. Results stay bit-identical to a fault-free run under every
	// fault class. The zero value means no watchdog, no injected cost and no
	// faults.
	Net mpi.Options
	// PointDelay injects CPU cost per iteration point into the compute
	// phase, the runtime counterpart of simnet.Params.IterTime (scaled the
	// same way as Net via simnet.Params.NetOptions). Real stencil kernels
	// take nanoseconds in-process, so without it every schedule looks
	// communication-bound; with it, compute–communication overlap is
	// measurable at the modelled ratio. Zero injects nothing.
	PointDelay time.Duration
	// Trace, when non-nil, records a measured per-tile timeline (the
	// simnet.Event schema) plus per-rank phase metrics into the tracer;
	// see Tracer. Nil disables tracing entirely: the executor takes no
	// timestamps and allocates nothing for observability.
	Trace *Tracer
	// Checkpoint enables tile-chain checkpointing: after every
	// CheckpointOptions.Every committed tiles a rank waits for its sends to
	// be due and snapshots its chain position and dirty LDS prefix. Kept in
	// memory, the snapshot lets a crashed rank restart in-process, every
	// send it issued counted once; handed to CheckpointOptions.Save, it
	// lets a relaunched rank process resume mid-conversation over the TCP
	// mesh's resume protocol (cmd/tilerankd). Nil disables checkpointing
	// (no per-tile overhead).
	Checkpoint *CheckpointOptions
	// Workers is ignored: a rank sweeps each tile's rows serially, as the
	// paper's generated code does, and the rank is the only unit of
	// parallelism.
	//
	// Deprecated: the executor has no intra-tile worker pool; leave it unset.
	Workers int
	// World, when non-nil, supplies a caller-owned runtime world instead
	// of constructing a fresh one per run — how a run goes over loopback
	// TCP, or one world serves run after run. It must have exactly
	// Dist.NumProcs() ranks and no run in flight; it is Reset under this
	// run's Net options before any rank starts, so a reused world behaves
	// bit-identically to a fresh one (internal/exec reuse tests assert
	// Global and Stats). The world is not torn down on return: the caller
	// owns it and may hand it to the next run. A world brings its own
	// transport (mpi.NewTCPWorld for loopback TCP); results and Stats are
	// bit-identical across transports, only WireStats differ. Nil runs on
	// a fresh in-process channel world.
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
// message per processor direction packing the union region j'_k ≥ cc_k).
// Results are written back to the global data space via the computer-owns
// rule. The zero RunOptions sends blocking, on a fresh in-process world.
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
	// Everything that can refuse the run has: only now allocate the result.
	g := NewGlobal(p.lo, p.hi, p.Width)
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

// rankState is one rank's machine for one run: the distribution's compiled
// chain (embedded, shared and read-only) plus everything the run mutates. It
// makes no runtime call. runRank steps it — next names the inbound row the
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

	// tr is this rank's measured-timeline recorder; nil when tracing is
	// off, and every instrumentation site is guarded on that.
	tr *rankTracer

	// ckpt is the checkpoint/recovery state, nil when checkpointing is off.
	ckpt *ckptState
}

// newRankState builds a rank's per-run state on top of its compiled chain
// (compiled here on the distribution's first use of the rank): the LDS, the
// inbound claim state, a few reused buffers and the checkpoint state — a
// chain resumed from opt.Checkpoint.Resume starts at the snapshot.
func newRankState(p *Program, r int, opt RunOptions) (*rankState, error) {
	rp, err := p.Dist.Plan(r)
	if err != nil {
		return nil, err
	}
	pr := p.Dist.Protocol()
	st := &rankState{
		p: p, rank: r,
		RankPlan:   rp,
		deps:       pr.Deps,
		dps:        pr.DPs,
		pointDelay: opt.PointDelay,
	}
	// A straggler's injected compute cost is its PointDelay, scaled.
	if s := opt.Net.Faults.SlowdownOf(r); s > 1 {
		st.pointDelay = time.Duration(float64(st.pointDelay) * s)
	}
	if opt.Trace != nil {
		st.tr = newRankTracer(opt.Trace, r)
	}
	st.la = make([]float64, st.Addr.Size()*int64(p.Width))
	st.rowStep = pr.RowStep
	st.ev = newRowEval(st)
	st.init = p.boundaryValues(r, rp)
	st.out = make([]outMsg, 0, len(rp.SendRank))
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

// runRank is the rank's driver, and the one place the executor calls the
// runtime. Per chain slot it receives the rows next names, fires the slot
// and issues its outbox. It carries out a planned crash (sit out the
// restart, then crash the machine) and a due snapshot (quiesce the wire,
// snapshot, hand the result to Save).
func (p *Program) runRank(c *mpi.Comm, g *Global, opt RunOptions) error {
	r := c.Rank()
	st, err := newRankState(p, r, opt)
	if err != nil {
		return err
	}
	faults := opt.Net.Faults
	crashAt := faults.CrashTile(r)
	for t, _ := st.next(); t < int64(len(st.Slots)); t, _ = st.next() {
		// A planned crash fires once, at the tile boundary before tile t's
		// receive. The node is gone, but every send it issued is already
		// with the transport and arrives; the outage is fault activity, so
		// the watchdog never mistakes it for a deadlock. Without in-memory
		// checkpointing crash panics.
		if t == crashAt {
			crashAt = -1
			c.FaultSleep(faults.RestartDelay)
			st.crash()
			continue
		}
		if st.tr != nil {
			st.tr.beginTile()
		}
		for _, row := st.next(); row >= 0; _, row = st.next() {
			var t0 time.Time
			if st.tr != nil {
				t0 = time.Now()
			}
			m := c.RecvMsg(st.RecvRank[st.Msgs[row].Dir], st.Msgs[row].Dir)
			if st.tr != nil {
				// Blocked wait apart from time spent queued in the mailbox.
				now := time.Now()
				st.tr.noteRecv(now.Sub(t0), now.Sub(m.Delivered), len(m.Data))
			}
			if err := st.offer(row, m.Data); err != nil {
				return err
			}
		}
		// The tile fires: every dependence is satisfied.
		st.fire()
		for _, m := range st.out {
			if opt.Overlap {
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
			if save := opt.Checkpoint.Save; save != nil {
				if err := save(snap); err != nil {
					return fmt.Errorf("exec: rank %d checkpoint at tile %d: %w", r, snap.NextTile, err)
				}
			}
		}
	}
	// The chain is done once its last Isend is due.
	c.WaitSends()
	if st.tr != nil {
		st.tr.finish(&st.pool)
	}
	st.writeBack(g)
	return nil
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

// chargePointDelay injects the modelled per-point CPU cost.
func (st *rankState) chargePointDelay(pts int64) {
	if st.pointDelay > 0 {
		time.Sleep(time.Duration(pts) * st.pointDelay)
	}
}
