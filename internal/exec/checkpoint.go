package exec

import (
	"fmt"
	"math"

	"tilespace/internal/mpi"
)

// This file is the recovery half of the rank machine. The compiled tile
// protocol makes a rank's state between tiles fully explicit — chain
// position, LDS contents, stream positions — so every
// CheckpointOptions.Every committed tiles the rank takes one RankSnapshot,
// and a lost rank becomes a rewind to it instead of a lost run. snapshot and
// crash are pure transitions of the machine's state; their wire effects
// (quiesce, stream counts, Save, the restart outage) are runRank's.
//
// A snapshot is taken quiesced: the driver first waits for everything the
// rank has sent to be due (mpi.Comm.WaitSends) and out of the transport
// (FlushWire), so "sent before the snapshot" is exact on every transport.
//
// With CheckpointOptions.Save the snapshot is persisted and recovery is a
// new OS process started with Resume (cmd/tilerankd): its peers' meshes
// retained what it had not consumed and the TCP resume protocol resends it,
// so the rank keeps no log of its own. Without Save the snapshot stays in
// memory and a planned crash (FaultPlan.Crash) is recovered in-process,
// from a recovery log the rank keeps since the snapshot — an in-process
// mailbox hands a claimed message over for good, and no peer retains it:
//
//   - Ledger: the (dst, tag) of every send since the snapshot, in issue
//     order. A send is with the transport the moment it is issued, so a
//     crash loses none of them: every ledger send arrives, exactly once.
//   - Held payloads: every message claimed since the snapshot is kept as a
//     copy — a restore wipes its unpacked cells from the LDS.
//   - Crash: the LDS is poisoned with NaN before restoring, so state the
//     snapshot fails to cover corrupts the differential result instead of
//     silently surviving.
//   - Restore: copy the snapshot back, unpack the held payloads on top of
//     it (rows are claimed in table order, so every held payload belongs to
//     a slot between the snapshot and the crash), turn the ledger into a
//     replay cursor and rewind the chain to the resume slot.
//   - Re-execution: the rewound tiles find their inbound-table rows already
//     claimed (claimed messages are not re-received from the wire, so
//     mpi.Stats count them once); packing consults the cursor, and every
//     ledger send stays out of the outbox — its receiver has it. The cursor
//     also checks that re-execution issues the same (dst, tag) sequence:
//     a mismatch is nondeterministic re-execution and panics. Past the
//     crash point the cursor is empty and the rank runs normally.
//
// Counting every message exactly once — when it is first issued — keeps
// mpi.Stats bit-identical to a fault-free run, which the chaos suite
// asserts.

// CheckpointOptions enables tile-chain checkpointing (RunOptions).
type CheckpointOptions struct {
	// Every is the snapshot period in committed tiles; 1 snapshots after
	// every tile (smallest rewind, highest overhead). Values < 1 mean 1.
	Every int64
	// Save, when non-nil, persists each snapshot; a non-nil error aborts
	// the run. The snapshot is only valid during the call (the rank reuses
	// its buffers). With Save set the rank keeps no recovery log, so a
	// FaultPlan.Crash is fatal: recovery is a relaunched process with
	// Resume. Nil keeps the snapshot in memory for in-process recovery.
	Save func(*RankSnapshot) error
	// Resume, when non-nil, starts rank Resume.Rank (one of the program's,
	// or the run is refused) at the snapshot instead of tile zero. The caller
	// (cmd/tilerankd) must build the mesh from its Recv/Sent (mpi.TCPConfig).
	Resume *RankSnapshot
}

// RankSnapshot is one rank's checkpoint: everything needed to resume its
// chain mid-conversation.
//
// NextTile and LDS restore the compute state (LDS is the dirty prefix of
// the backing array: every value the chain has produced or received so
// far, so re-execution starts at the snapshot's tile boundary, not from
// zero). Recv and Sent are the wire coordinates, filled for Save from
// mpi.World.StreamCounts and SentStreamCounts. A relaunched process hands
// both to mpi.NewTCPMesh (TCPConfig.Recv/Sent), which seeds the resume
// protocol at construction: reconnecting peers resend exactly what this
// rank never consumed, and regenerated sends are numbered as their lost
// originals so suppression and dedup remove every duplicate. Resume itself
// consumes only Recv: runRank seeds the fresh mailbox's consumed counts
// from it (mpi.World.RestoreStreams) so the next snapshot continues from
// them.
type RankSnapshot struct {
	Rank     int
	NextTile int64
	LDS      []float64
	Recv     []mpi.StreamPos
	Sent     []mpi.StreamPos
}

// sendRec is one ledger entry: a send issued since the last snapshot.
type sendRec struct{ dst, tag int }

// heldMsg is the payload of inbound-table row `row`, claimed since the last
// snapshot and copied because the runtime cannot replay a claimed message.
type heldMsg struct {
	row  int
	data []float64
}

// ckptState is a rank's checkpoint/recovery state; nil when RunOptions
// left checkpointing off, and every hook is guarded on that.
type ckptState struct {
	every int64
	saved bool // snapshots go to CheckpointOptions.Save: no recovery log

	// ldsHi is the dirty high-water mark of the LDS backing array, in
	// floats: every write site raises it, so la[:ldsHi] is the only region
	// a snapshot must copy.
	ldsHi int64

	// snap is the last snapshot (tiles < snap.NextTile are committed);
	// ledger and held are the recovery log accumulated since, kept only
	// when the snapshot is (!saved).
	snap   RankSnapshot
	ledger []sendRec
	held   []heldMsg

	// The replay cursor, populated by a crash and drained by re-execution:
	// the crashed incarnation's ledger, every entry of which it delivered.
	replaySend []sendRec
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

// logs reports whether the rank keeps the in-process recovery log.
func (ck *ckptState) logs() bool { return ck != nil && !ck.saved }

// snapshotDue reports whether the slot just fired ends a snapshot period.
// The end of the chain is not snapshotted — nothing is left to resume.
func (st *rankState) snapshotDue() bool {
	ck := st.ckpt
	return ck != nil && st.t%ck.every == 0 && st.t != int64(len(st.Slots))
}

// snapshot records the rank's restartable state as of the current slot —
// chain position and dirty LDS prefix — and restarts the recovery log
// empty. The driver has quiesced the wire and fills in the stream counts
// a Save needs; the snapshot is the rank's, valid until the next one.
func (st *rankState) snapshot() *RankSnapshot {
	ck := st.ckpt
	ck.ledger = ck.ledger[:0]
	ck.held = ck.held[:0]
	ck.snap.NextTile = st.t
	ck.snap.LDS = append(ck.snap.LDS[:0], st.la[:ck.ldsHi]...)
	return &ck.snap
}

// crash loses the rank at the boundary of its current slot and restarts it
// in-process from the last snapshot. Without the in-process recovery log a
// dead rank is a dead run: panic, which aborts the world with a diagnostic.
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
	// Re-execution replays the ledger in order, rebuilding it as it goes.
	ck.replaySend = append(ck.replaySend[:0], ck.ledger...)
	ck.ledger = ck.ledger[:0]
	st.t = ck.snap.NextTile
	if st.tr != nil {
		st.tr.noteFault("restart", st.t)
	}
}

// checkReplayDrained asserts the crash recovery actually converged: once
// the chain completes the replay cursor must be empty, or re-execution
// diverged from the first incarnation.
func (st *rankState) checkReplayDrained() error {
	if ck := st.ckpt; ck != nil && len(ck.replaySend) > 0 {
		return fmt.Errorf("exec: rank %d finished its chain with %d unconsumed ledger sends — re-execution diverged from the crashed incarnation", st.rank, len(ck.replaySend))
	}
	return nil
}

// markDirty raises the LDS dirty high-water mark to end (in floats).
// Write sites call it so snapshots copy only the touched prefix.
func (st *rankState) markDirty(end int64) {
	if st.ckpt != nil && end > st.ckpt.ldsHi {
		st.ckpt.ldsHi = end
	}
}

// delivered runs one packed send of slot t through the recovery layer and
// reports whether it stays out of the outbox. The send joins the ledger when
// the rank keeps one. During post-crash re-execution it consults the replay
// cursor: the first incarnation issued the message, and the receiver has it
// — resending would corrupt the stream and double-count Stats.
func (st *rankState) delivered(dst, tag int, t int64) bool {
	ck := st.ckpt
	if ck.logs() {
		ck.ledger = append(ck.ledger, sendRec{dst, tag})
	}
	if ck == nil || len(ck.replaySend) == 0 {
		return false
	}
	rec := ck.replaySend[0]
	ck.replaySend = ck.replaySend[1:]
	if rec.dst != dst || rec.tag != tag {
		panic(fmt.Sprintf("exec: rank %d replay cursor mismatch at tile %d: re-execution sends (dst=%d, tag=%d), ledger recorded (dst=%d, tag=%d) — nondeterministic re-execution", st.rank, t, dst, tag, rec.dst, rec.tag))
	}
	return true
}
