package exec

import (
	"fmt"

	"tilespace/internal/distrib"
)

// This file is the receive side of the rank machine: the paper's §3.2
// RECEIVE — one message per (predecessor tile, processor direction), claimed
// at the minsucc tile — enumerated once into a per-rank inbound-message table
// (distrib.RankPlan.Msgs: the table is part of the distribution's compiled
// protocol, built on the rank's first use). A run owns only the claim state
// over it: next names the first row the current slot still waits for, offer
// claims a row and unpacks it. Neither touches the runtime; runRank receives
// what next names and offers it.
//
// A message carries no tile identity beyond its position on its (source,
// tag) FIFO stream, and the source of direction di is always pid − DM[di],
// so a rank has one stream per direction and the table's rows of a
// direction, in table order, are that stream's wire order. offer accepts a
// row only at its stream's head, so the next unclaimed row of a direction is
// always the message at the head of the mailbox queue — no receive needs
// posting ahead of time.
//
// Static and dynamic scheduling are two driver policies over that table:
//
//   - Static receives the slot's rows in the order next names them: the
//     paper's generated code.
//   - Dynamic (RunOptions.Dynamic), before each tile, offers every stream
//     head that has already arrived — for this tile or any later one — then
//     receives only the current tile's still-missing rows. Tiles still fire
//     in chain order (the wire forces it: reordering sends or receives
//     within a stream would unpair every message on it); what moves is when
//     the unpack work happens. Sends are always asynchronous.
//
// Each halo cell has exactly one writer (verify's comm-exactness theorem),
// so early unpacking commutes across streams: results are bit-identical
// under both policies, and Stats are equal because the wire carries the
// identical message sequence. The differential and chaos suites assert
// both. Crash recovery (checkpoint.go) is the same under both policies.

// inbox is one run's claim state over the rank's inbound-message table
// (distrib.RankPlan.Msgs with its per-direction queues Rows).
type inbox struct {
	claimed []bool // per table row
	cur     int    // rows below cur are claimed or belong to earlier slots
	heads   []int  // per direction: index into rows[di] of the first unclaimed row
}

// next reports the chain slot the rank fires next and the first inbound row
// it still waits for — −1 when it has them all and can fire. The slot is
// len(Slots) once the chain is done. Rows of slots a crash rewound over lie
// before cur: the first incarnation claimed them all.
func (st *rankState) next() (int64, int) {
	in := &st.in
	for ; in.cur < len(st.Msgs) && st.Msgs[in.cur].T <= st.t; in.cur++ {
		if !in.claimed[in.cur] {
			return st.t, in.cur
		}
	}
	return st.t, -1
}

// head is the row at the head of direction di's stream, the only row of it
// offer accepts; −1 once the stream is exhausted.
func (st *rankState) head(di int) int {
	if h := st.in.heads[di]; h < len(st.Rows[di]) {
		return st.Rows[di][h]
	}
	return -1
}

// offer claims table row i with the payload its stream delivered: the row
// must be at its stream's head and the payload the size the table says. The
// payload is unpacked and recycled; the recovery log keeps a copy.
func (st *rankState) offer(i int, data []float64) error {
	m := &st.Msgs[i]
	if h := st.head(m.Dir); h != i {
		return fmt.Errorf("exec: rank %d: row %d offered out of stream order (the head of tag %d is row %d)", st.rank, i, m.Dir, h)
	}
	if want := m.Runs.Total * int64(st.p.Width); int64(len(data)) != want {
		return fmt.Errorf("exec: rank %d chain slot %d: message from rank %d tag %d has %d values, expected %d", st.rank, m.T, st.RecvRank[m.Dir], m.Dir, len(data), want)
	}
	if ck := st.ckpt; ck.logs() {
		ck.held = append(ck.held, heldMsg{row: i, data: append([]float64(nil), data...)})
	}
	st.unpack(m, data)
	st.in.claimed[i] = true
	st.in.heads[m.Dir]++
	st.pool.put(data)
	return nil
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
