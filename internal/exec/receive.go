package exec

import (
	"fmt"

	"tilespace/internal/distrib"
)

// This file is the receive side of the rank machine: the paper's §3.2
// RECEIVE — one message per (predecessor tile, processor direction), claimed
// at the minsucc tile — as the distribution's per-rank inbound-message table
// (distrib.RankPlan.Msgs), in claim order. A run keeps one cursor over it,
// rankState.cur. next names the row the current slot still waits for, offer
// claims and unpacks it; neither touches the runtime. A rank has one stream
// per direction (the source of direction di is pid − DM[di]) and a table's
// rows of a direction are that stream's wire order, so claiming in table
// order always takes a stream's head. It loses nothing: the stream already
// fixes which slot a payload belongs to, so claiming early could only move
// unpack work, never the firing order.

// next reports the chain slot the rank fires next and the inbound row it
// still waits for — −1 when it has them all and can fire. The slot is
// len(Slots) once the chain is done. Rows of slots a crash rewound over lie
// before cur: the first incarnation claimed them all.
func (st *rankState) next() (int64, int) {
	if st.cur < len(st.Msgs) && st.Msgs[st.cur].T <= st.t {
		return st.t, st.cur
	}
	return st.t, -1
}

// offer claims table row i with the payload its stream delivered: the row
// must be the one next names and the payload the size the table says. The
// payload is unpacked; in-memory recovery holds it, and its sender writes it
// once per run.
func (st *rankState) offer(i int, data []float64) error {
	if _, want := st.next(); i != want {
		return fmt.Errorf("exec: rank %d chain slot %d: row %d offered out of order (the slot waits for row %d)", st.rank, st.t, i, want)
	}
	m := &st.Msgs[i]
	if want := m.Runs.Total * int64(st.p.Width); int64(len(data)) != want {
		return fmt.Errorf("exec: rank %d chain slot %d: message from rank %d tag %d has %d values, expected %d", st.rank, m.T, st.RecvRank[m.Dir], m.Dir, len(data), want)
	}
	if ck := st.ckpt; ck.logs() {
		ck.held = append(ck.held, heldMsg{row: i, data: data})
	}
	st.unpack(m, data)
	st.cur++
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
