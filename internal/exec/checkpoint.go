package exec

import (
	"fmt"
	"math"

	"tilespace/internal/mpi"
)

// This file is the executor's crash-recovery layer. The compiled tile
// protocol makes a rank's state between tiles fully explicit — chain
// position, LDS contents, in-flight sends — which is exactly what makes
// restartability cheap: after each committed tile the rank can snapshot
// that state, and a crash (FaultPlan.Crash) becomes a rewind instead of a
// lost run.
//
// The protocol, end to end:
//
//   - Snapshot (every CheckpointOptions.Every committed tiles): copy the
//     dirty LDS prefix (a high-water mark maintained by every write site),
//     record the resume slot, prune the send ledger of delivered entries
//     and release the held payloads (their unpacked cells are in the copy).
//   - Ledger: every send since the last snapshot is recorded (destination,
//     tag, payload copy, completion request). Blocking sends deliver
//     synchronously; Isends carry their Request so delivery is queryable.
//   - Held payloads: every message claimed since the last snapshot is
//     kept as a copy — the mailbox cannot replay a claimed message, and a
//     restore wipes its unpacked cells from the LDS.
//   - Crash: mpi.Comm.DropPending discards the NIC's untransmitted queue
//     and makes every request's delivered/dropped status final; the NIC
//     transmits in issue order, so the delivered set is a prefix of issue
//     order and the dropped set a suffix. The LDS is poisoned with NaN
//     before restoring, so state the snapshot fails to cover corrupts the
//     differential result instead of silently surviving.
//   - Restore: copy the snapshot back, unpack the held payloads on top of
//     it (a message claimed early by the dynamic policy may belong to a
//     tile past the crash point, so all of them go back at once), resend
//     dropped pre-snapshot sends (ledger order = issue order, so per-stream
//     FIFO is preserved), turn the post-snapshot ledger into a resend
//     cursor, and rewind the chain to the resume slot.
//   - Re-execution: the rewound tiles find their inbound-table rows already
//     claimed (claimed messages are not re-received from the wire, so
//     mpi.Stats count them once); sends consult the cursor — delivered
//     entries are skipped, dropped entries are sent fresh (re-execution
//     from the restored LDS reproduces the payload bit for bit). Past the
//     crash point the cursor is empty and the rank runs normally.
//
// Counting every message exactly once — at its one successful delivery —
// keeps mpi.Stats bit-identical to a fault-free run, which the chaos
// suite asserts.

// CheckpointOptions enables tile-chain checkpointing (RunOptions).
type CheckpointOptions struct {
	// Every is the snapshot period in committed tiles; 1 snapshots after
	// every tile (smallest rewind, highest overhead). Values < 1 mean 1.
	Every int64
}

// sendRec is one ledger entry: a send issued since the last snapshot.
type sendRec struct {
	dst, tag int
	tile     int64 // chain slot that issued it
	data     []float64
	// req is nil for blocking sends (delivered synchronously); for Isends
	// it answers delivered-vs-dropped once the crash finalizes it.
	req *mpi.Request
}

// delivered reports whether the entry's message reached its mailbox.
// Definitive only after DropPending has finalized in-flight requests.
func (r *sendRec) delivered() bool { return r.req == nil || !r.req.Dropped() }

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

	// ldsHi is the dirty high-water mark of the LDS backing array, in
	// floats: every write site raises it, so la[:ldsHi] is the only region
	// a snapshot must copy.
	ldsHi int64

	// The last snapshot: resume slot (tiles < snapT are committed), the
	// dirty LDS prefix at that moment, the send ledger and held payloads
	// accumulated since.
	snapT  int64
	snapLa []float64
	ledger []sendRec
	held   []heldMsg

	// The resend cursor, populated by a crash and drained by re-execution.
	replaySend []sendRec

	crashed bool // this rank already used its one crash
	resent  int  // messages resent after the crash
}

// commitTile runs after tile t is fully committed (sent phase done,
// progress noted): time for a snapshot if the period says so.
func (st *rankState) commitTile(t int64) {
	ck := st.ckpt
	if ck == nil {
		return
	}
	if (t+1)%ck.every == 0 {
		st.snapshot(t + 1)
	}
}

// snapshot records the rank's restartable state as of "resumeT tiles
// committed": the dirty LDS prefix, plus the still-undelivered suffix of
// the ledger (delivered entries can never need resending; in-flight
// Isends might, if a later crash drops them).
func (st *rankState) snapshot(resumeT int64) {
	ck := st.ckpt
	kept := ck.ledger[:0]
	for _, rec := range ck.ledger {
		if rec.req != nil && !rec.req.Test() {
			kept = append(kept, rec)
		}
	}
	ck.ledger = kept
	ck.held = ck.held[:0]
	ck.snapT = resumeT
	if int64(cap(ck.snapLa)) < ck.ldsHi {
		ck.snapLa = make([]float64, ck.ldsHi)
	}
	ck.snapLa = ck.snapLa[:ck.ldsHi]
	copy(ck.snapLa, st.la[:ck.ldsHi])
}

// crash simulates losing this rank at the boundary of tile t and returns
// the chain slot to resume from. Without checkpointing a dead rank is a
// dead run: panic, which aborts the world with a diagnostic.
func (st *rankState) crash(t int64) int64 {
	if st.ckpt == nil {
		panic(fmt.Sprintf("exec: rank %d crashed at tile %d (FaultPlan.Crash) with no checkpointing enabled — run lost", st.rank, t))
	}
	ck := st.ckpt
	ck.crashed = true
	if st.tr != nil {
		st.tr.noteFault("crash", t)
	}
	// The node is gone: outbound messages not yet on the wire are lost.
	// DropPending finalizes every request, so the ledger's delivered-vs-
	// dropped answers below are definitive.
	st.c.DropPending()
	mpi.Waitall(st.pending)
	st.pending = st.pending[:0]
	st.reaped = 0
	st.sendsDone.Store(0)
	// Reboot/rejoin time; counted as fault activity so the watchdog never
	// mistakes the outage for a deadlock.
	st.c.FaultSleep(st.faults.RestartDelay)

	// The replacement process starts blank: poison the LDS so any state
	// the snapshot fails to cover shows up as NaN in the result, then
	// restore the snapshot prefix.
	for i := range st.la {
		st.la[i] = math.NaN()
	}
	copy(st.la, ck.snapLa)
	ck.ldsHi = int64(len(ck.snapLa))
	// No wire activity, no Stats, no tracer counts: each held message was
	// counted at its one successful receive.
	for _, h := range ck.held {
		st.unpack(&st.msgs[h.row], h.data)
	}

	// Split the ledger at the snapshot: pre-snapshot entries are not
	// re-executed, so their dropped ones are resent here from the recorded
	// payload (ledger order = issue order — and the dropped set is a
	// suffix of issue order, so these precede every post-snapshot resend
	// on their stream); post-snapshot entries become the re-execution
	// cursor. Delivered pre-snapshot entries leave the ledger for good.
	ck.replaySend = ck.replaySend[:0]
	kept := ck.ledger[:0]
	for _, rec := range ck.ledger {
		if rec.tile >= ck.snapT {
			ck.replaySend = append(ck.replaySend, rec)
			continue
		}
		if rec.delivered() {
			continue
		}
		// Isend copies the payload, so the fresh ledger entry keeps ours.
		req := st.c.Isend(rec.dst, rec.tag, rec.data)
		req.OnComplete(st.noteFn)
		st.pending = append(st.pending, req)
		kept = append(kept, sendRec{dst: rec.dst, tag: rec.tag, tile: rec.tile, data: rec.data, req: req})
		ck.resent++
		if st.tr != nil {
			st.tr.noteResend()
		}
	}
	ck.ledger = kept
	if st.tr != nil {
		st.tr.noteFault("restart", ck.snapT)
	}
	return ck.snapT
}

// checkReplayDrained asserts the crash recovery actually converged: once
// the chain completes the resend cursor must be empty, or re-execution
// diverged from the first incarnation.
func (st *rankState) checkReplayDrained() error {
	ck := st.ckpt
	if ck == nil {
		return nil
	}
	if len(ck.replaySend) > 0 {
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

// dispatchSend routes one outbound message through the recovery layer.
// During post-crash re-execution it consults the resend cursor: messages
// the first incarnation delivered are skipped (the receiver has them;
// resending would corrupt the stream and double-count Stats), dropped
// ones fall through and are sent fresh. Outside replay — or once the
// cursor is drained — it issues via the mode's primitive and, when
// checkpointing is on, records a ledger entry with a payload copy.
//
// buf's ownership transfers to the runtime with the send; the return value
// reports whether the send was skipped, so the caller still owns buf and
// should recycle it.
func (st *rankState) dispatchSend(dst, tag int, buf []float64, t int64) bool {
	ck := st.ckpt
	if ck != nil && len(ck.replaySend) > 0 {
		rec := ck.replaySend[0]
		ck.replaySend = ck.replaySend[1:]
		if rec.dst != dst || rec.tag != tag {
			panic(fmt.Sprintf("exec: rank %d resend cursor mismatch at tile %d: re-execution sends (dst=%d, tag=%d), ledger recorded (dst=%d, tag=%d) — nondeterministic re-execution", st.rank, t, dst, tag, rec.dst, rec.tag))
		}
		if rec.delivered() {
			return true // receiver already has it
		}
		ck.resent++
		if st.tr != nil {
			st.tr.noteResend()
		}
	}
	var rec sendRec
	if ck != nil {
		rec = sendRec{dst: dst, tag: tag, tile: t, data: append([]float64(nil), buf...)}
	}
	if st.overlap {
		req := st.c.IsendOwned(dst, tag, buf)
		req.OnComplete(st.noteFn)
		st.pending = append(st.pending, req)
		rec.req = req
	} else {
		st.c.SendOwned(dst, tag, buf)
	}
	if ck != nil {
		ck.ledger = append(ck.ledger, rec)
	}
	if st.tr != nil {
		st.tr.noteSend(len(buf), len(st.pending))
	}
	return false
}
