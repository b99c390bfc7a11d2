package exec

import (
	"fmt"
	"sync"

	"tilespace/internal/distrib"
	"tilespace/internal/ilin"
	"tilespace/internal/verify"
)

// This file is the executor's one receive engine: the paper's §3.2 RECEIVE
// — one message per (predecessor tile, processor direction), claimed at the
// minsucc tile — enumerated once into a per-rank inbound-message table
// (distrib.RankPlan.Msgs: the table is part of the distribution's compiled
// protocol, built on the rank's first use) and consumed by the one rank loop
// (runRank) through one unpack. A run owns only the claim state over it.
//
// A message carries no tile identity beyond its position on its (source,
// tag) FIFO stream, and the source of direction di is always pid − DM[di],
// so a rank has one stream per direction and the table's rows of a
// direction, in table order, are that stream's wire order. Rows are claimed
// only at their stream's head, so the next unclaimed row of a direction is
// always the message at the head of the mailbox queue — no receive needs
// posting ahead of time.
//
// Static and dynamic scheduling are two policies over that table:
//
//   - Static blocks on the tile's rows in claim order: the paper's
//     generated code.
//   - Dynamic (RunOptions.Dynamic), before each tile, claims every stream
//     head that has already arrived — for this tile or any later one — then
//     blocks only for the current tile's still-missing rows. Tiles still
//     fire in chain order (the wire forces it: reordering sends or receives
//     within a stream would unpair every message on it); what moves is when
//     the unpack work happens. Sends are always asynchronous.
//
// Each halo cell has exactly one writer (verify's comm-exactness theorem),
// so early unpacking commutes across streams: results are bit-identical
// under both policies, and Stats are equal because the wire carries the
// identical message sequence. The differential and chaos suites assert
// both.
//
// Crash recovery is the same under both policies: a claimed payload is
// retained (ckptState.held) until a snapshot has captured its unpacked
// cells, and crash() re-applies the retained payloads on top of the
// restored LDS. The wire never replays a claimed message, so Stats count
// it exactly once, and the re-executed tiles find their rows already
// claimed.

// inbox is one run's claim state over the rank's inbound-message table
// (distrib.RankPlan.Msgs with its per-direction queues Rows).
type inbox struct {
	claimed []bool // per table row
	cur     int    // rows below cur belong to tiles before the current one
	heads   []int  // per direction: index into rows[di] of the first unclaimed row
}

// skipClaimed marks the rows of chain slots below start as claimed: a chain
// resumed from a saved snapshot consumed them in its earlier incarnation
// (static claim order — Dynamic excludes Checkpoint.Resume).
func (st *rankState) skipClaimed(start int64) {
	in := &st.in
	for ; in.cur < len(st.Msgs) && st.Msgs[in.cur].T < start; in.cur++ {
		in.claimed[in.cur] = true
		in.heads[st.Msgs[in.cur].Dir]++
	}
}

// receive is the RECEIVE of chain slot t under the rank's policy.
func (st *rankState) receive(t int64) error {
	in := &st.in
	if st.dynamic {
		for di, rows := range st.Rows {
			for in.heads[di] < len(rows) {
				ok, err := st.claim(rows[in.heads[di]], false)
				if err != nil {
					return err
				}
				if !ok {
					break // nothing more has arrived on this stream
				}
			}
		}
	}
	// Rows the dynamic intake got to first are already claimed. (Tiles a
	// crash rewound over lie before cur: their rows were all claimed by the
	// first incarnation.)
	for ; in.cur < len(st.Msgs) && st.Msgs[in.cur].T <= t; in.cur++ {
		if in.claimed[in.cur] {
			continue
		}
		if _, err := st.claim(in.cur, true); err != nil {
			return err
		}
	}
	return nil
}

// claim takes table row i's message off the head of its stream — blocking
// for it, or only if it has already arrived — and unpacks it. The blocking
// receive is the watchdog-aware one.
func (st *rankState) claim(i int, block bool) (bool, error) {
	m := &st.Msgs[i]
	src := st.RecvRank[m.Dir]
	var data []float64
	if block {
		data = st.recv(src, m.Dir)
	} else {
		var ok bool
		if data, ok = st.c.TryRecv(src, m.Dir); !ok {
			return false, nil
		}
		if st.tr != nil {
			st.tr.noteRecv(0, 0, len(data))
		}
	}
	if want := m.Runs.Total * int64(st.p.Width); int64(len(data)) != want {
		return false, fmt.Errorf("exec: rank %d chain slot %d: message from rank %d tag %d has %d values, expected %d", st.rank, m.T, src, m.Dir, len(data), want)
	}
	if ck := st.ckpt; ck.logs() {
		ck.held = append(ck.held, heldMsg{row: i, data: append([]float64(nil), data...)})
	}
	st.unpack(m, data)
	st.in.claimed[i] = true
	st.in.heads[m.Dir]++
	st.pool.put(data)
	return true, nil
}

// unpack replays the predecessor plan's run list shifted by the constant
// pack→unpack offset (Addresser.DirShift) plus the predecessor's chain
// slot: contiguity in pack space is contiguity in unpack space, so
// unpacking is the same few bulk copies as packing.
func (st *rankState) unpack(m *distrib.InMsg, data []float64) {
	w := st.p.Width
	base := m.Tau*st.ChainStep + st.DirShift[m.Dir]
	pos := 0
	for _, run := range m.Runs.Runs {
		cell := (run.Off + base) * int64(w)
		nn := int(run.N) * w
		copy(st.la[cell:cell+int64(nn)], data[pos:pos+nn])
		st.markDirty(cell + int64(nn))
		pos += nn
	}
}

// FiringLog records the observed firing order of a run for post-hoc
// certification by verify.CheckDynamicOrder. One lock serializes all ranks'
// appends, so a record's Seq is its index in the single observed
// linearization: any happens-before edge between two firings — program
// order within a rank, or a message send happening-before its claim —
// implies Seq order.
//
// Under crash-restart a rewound rank re-executes tiles it already fired;
// only the first firing of each tile is recorded (keep-first). The first
// incarnation is the one whose outputs the rest of the cluster may have
// already consumed, so its sequence is the linearization that must extend
// the dependence order — a re-fire's position would not be (a successor
// fed by a delivered pre-crash message can legitimately fire before the
// re-fire).
type FiringLog struct {
	mu   sync.Mutex
	recs []verify.FiringRecord
}

// note appends the next firing record; called once per tile, at its first
// firing, before the tile's sends are issued.
func (fl *FiringLog) note(rank int, slot int64, tile ilin.Vec) {
	fl.mu.Lock()
	fl.recs = append(fl.recs, verify.FiringRecord{
		Seq:  int64(len(fl.recs)),
		Rank: rank,
		Slot: slot,
		Tile: append(ilin.Vec(nil), tile...),
	})
	fl.mu.Unlock()
}

// reset clears the log for a fresh run (RunParallelOpts does this so a
// log can be reused across runs).
func (fl *FiringLog) reset() {
	fl.mu.Lock()
	fl.recs = fl.recs[:0]
	fl.mu.Unlock()
}

// Records returns a copy of the recorded firing order.
func (fl *FiringLog) Records() []verify.FiringRecord {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	return append([]verify.FiringRecord(nil), fl.recs...)
}
