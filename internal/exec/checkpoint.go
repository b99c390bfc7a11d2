package exec

import (
	"fmt"
	"math"

	"tilespace/internal/mpi"
)

// This file is the recovery half of the rank machine (DESIGN.md, "Fault
// injection & recovery"). A rank's state between tiles is its chain position and LDS;
// its wire position is read off the compiled tables (StreamPositions). So
// every CheckpointOptions.Every tiles the rank takes a RankSnapshot
// {Rank, NextTile, LDS}, quiesced (its sends due and flushed), and a lost
// rank becomes a rewind to it. snapshot and crash are pure transitions of
// the machine; their wire effects are the driver's (parallel.go). With Save
// the snapshot is persisted and recovery is a relaunched process; without,
// a planned crash is recovered in-process: the rank holds every payload
// claimed since the snapshot (its sender writes each once per run),
// NaN-poisons its LDS, restores the snapshot and the held payloads, and
// re-executes from the snapshot's slot — re-claiming nothing and, below the
// crash slot (the replay bound), packing nothing, so mpi.Stats count every
// message once.

// CheckpointOptions enables tile-chain checkpointing (RunOptions).
type CheckpointOptions struct {
	// Every is the snapshot period in committed tiles; 1 snapshots after
	// every tile (smallest rewind, highest overhead). Values < 1 mean 1.
	Every int64
	// Save, when non-nil, persists each snapshot; a non-nil error aborts
	// the run. The snapshot is only valid during the call (the rank reuses
	// its buffers). With Save set the rank keeps no held payloads, so a
	// FaultPlan.Crash is fatal: recovery is a relaunched process with
	// Resume. Nil keeps the snapshot in memory for in-process recovery.
	Save func(*RankSnapshot) error
	// Resume, when non-nil, starts rank Resume.Rank (one of the program's,
	// or the run is refused) at the snapshot instead of tile zero. The
	// caller (cmd/tilerankd) must build the mesh from the rank's stream
	// positions at Resume.NextTile (StreamPositions, mpi.TCPConfig).
	Resume *RankSnapshot
}

// RankSnapshot is one rank's checkpoint: everything needed to resume its
// chain mid-conversation. NextTile is the first slot not yet fired, and LDS
// is the dirty prefix of the backing array: every value the chain has
// produced or received so far, so re-execution starts at the snapshot's
// tile boundary, not from zero. The wire position is not stored: it is
// StreamPositions(Rank, NextTile).
type RankSnapshot struct {
	Rank     int
	NextTile int64
	LDS      []float64
}

// heldMsg is the payload of inbound-table row `row`, claimed since the last
// snapshot and held because the runtime cannot replay a claimed message.
type heldMsg struct {
	row  int
	data []float64
}

// ckptState is a rank's checkpoint/recovery state; nil when RunOptions
// left checkpointing off, and every hook is guarded on that.
type ckptState struct {
	every int64
	saved bool // snapshots go to CheckpointOptions.Save: no held payloads

	// ldsHi is the dirty high-water mark of the LDS backing array, in
	// floats: every write site raises it, so la[:ldsHi] is the only region
	// a snapshot must copy.
	ldsHi int64

	// snap is the last snapshot (tiles < snap.NextTile are committed);
	// held are the payloads claimed since, kept only when the snapshot is
	// (!saved).
	snap RankSnapshot
	held []heldMsg

	// replayTo is the slot a crash struck: the crashed incarnation issued
	// every send of the slots below it, so re-execution packs none of them.
	replayTo int64
}

// newCkptState builds the rank's checkpoint state, restored from
// opt.Resume when that names this rank.
func (st *rankState) newCkptState(opt *CheckpointOptions) (*ckptState, error) {
	ck := &ckptState{every: max(opt.Every, 1), saved: opt.Save != nil}
	ck.snap.Rank = st.rank
	if snap := opt.Resume; snap != nil && snap.Rank == st.rank {
		if len(snap.LDS) > len(st.la) {
			return nil, fmt.Errorf("exec: rank %d snapshot LDS has %d values, the rank's has %d", st.rank, len(snap.LDS), len(st.la))
		}
		if snap.NextTile < 0 || snap.NextTile > st.p.Dist.ChainLen[st.rank] {
			return nil, fmt.Errorf("exec: rank %d snapshot resumes at tile %d of %d", st.rank, snap.NextTile, st.p.Dist.ChainLen[st.rank])
		}
		ck.snap.NextTile = snap.NextTile
		ck.snap.LDS = append(ck.snap.LDS, snap.LDS...)
		ck.ldsHi = int64(copy(st.la, snap.LDS))
	}
	return ck, nil
}

// StreamPositions reads rank's wire position at chain slot next off its
// compiled tables: recv counts, per inbound direction (the tag), the table
// rows of the slots below next (Src: the sender); sent counts those slots'
// sends per outbound direction (Src: the destination). A stream with no
// traffic yet is left out. A relaunched rank builds its mesh from them
// (mpi.TCPConfig.Recv/Sent). A rank or slot outside the program is refused.
func (p *Program) StreamPositions(rank int, next int64) (recv, sent []mpi.StreamPos, err error) {
	if n := p.Dist.NumProcs(); rank < 0 || rank >= n {
		return nil, nil, fmt.Errorf("exec: rank %d outside the program's ranks 0..%d", rank, n-1)
	}
	rp, err := p.Dist.Schedule(rank)
	if err != nil {
		return nil, nil, err
	}
	if next < 0 || next > int64(len(rp.Slots)) {
		return nil, nil, fmt.Errorf("exec: rank %d has no chain slot %d (its chain has %d)", rank, next, len(rp.Slots))
	}
	in := make([]uint64, len(rp.RecvRank))
	for _, m := range rp.Msgs {
		if m.T >= next {
			break // the table is in claim order
		}
		in[m.Dir]++
	}
	out := make([]uint64, len(rp.SendRank))
	for _, sl := range rp.Slots[:next] {
		for _, s := range sl.Sends {
			out[s.Dir]++
		}
	}
	for dir := range in {
		if in[dir] > 0 {
			recv = append(recv, mpi.StreamPos{Src: rp.RecvRank[dir], Tag: dir, Count: in[dir]})
		}
		if out[dir] > 0 {
			sent = append(sent, mpi.StreamPos{Src: rp.SendRank[dir], Tag: dir, Count: out[dir]})
		}
	}
	return recv, sent, nil
}

// logs reports whether the rank keeps held payloads for in-process recovery.
func (ck *ckptState) logs() bool { return ck != nil && !ck.saved }

// snapshotDue reports whether the rank, about to fire its current slot, is
// to snapshot first: the slot ends a snapshot period and the last snapshot
// (or the resumed one) is not at it. The end of the chain is not
// snapshotted — nothing is left to resume.
func (st *rankState) snapshotDue() bool {
	ck := st.ckpt
	return ck != nil && st.t%ck.every == 0 && st.t != ck.snap.NextTile && !st.done()
}

// snapshot records the rank's restartable state as of the current slot —
// chain position and dirty LDS prefix — and restarts the held payloads
// empty. The driver has quiesced the wire; the snapshot is the rank's,
// valid until the next one.
func (st *rankState) snapshot() *RankSnapshot {
	ck := st.ckpt
	ck.held = ck.held[:0]
	ck.snap.NextTile = st.t
	ck.snap.LDS = append(ck.snap.LDS[:0], st.la[:ck.ldsHi]...)
	return &ck.snap
}

// crash loses the rank at the boundary of its current slot and restarts it
// in-process from the last snapshot. Without held payloads a dead rank is a
// dead run: panic, which aborts the world with a diagnostic.
func (st *rankState) crash() {
	ck := st.ckpt
	if !ck.logs() {
		panic(fmt.Sprintf("exec: rank %d crashed at tile %d (FaultPlan.Crash) with no in-memory checkpointing enabled — run lost", st.rank, st.t))
	}
	if st.tr != nil {
		st.tr.noteFault("crash", st.t)
	}
	// The replacement process starts blank: poison the LDS so any state
	// the snapshot fails to cover shows up as NaN in the result, then
	// restore the snapshot prefix.
	for i := range st.la {
		st.la[i] = math.NaN()
	}
	ck.ldsHi = int64(copy(st.la, ck.snap.LDS))
	// No wire activity, no Stats, no tracer counts: each held message was
	// counted at its one successful receive.
	for _, h := range ck.held {
		st.unpack(&st.Msgs[h.row], h.data)
	}
	// Every slot below the crash has issued its sends.
	ck.replayTo = st.t
	st.t = ck.snap.NextTile
	if st.tr != nil {
		st.tr.noteFault("restart", st.t)
	}
}

// markDirty raises the LDS dirty high-water mark to end (in floats).
// Write sites call it so snapshots copy only the touched prefix.
func (st *rankState) markDirty(end int64) {
	if st.ckpt != nil && end > st.ckpt.ldsHi {
		st.ckpt.ldsHi = end
	}
}
