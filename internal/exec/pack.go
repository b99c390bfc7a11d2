package exec

import "tilespace/internal/distrib"

// This file holds run-based packing into the rank's outbox (bulk copies over
// the plan's LDS runs; unpack is its mirror in receive.go). Which slots send
// along which directions, and how many values each payload has, is compiled
// (distrib.SlotPlan.Sends), so a rank's every payload of a run has its place
// in one send array sized when the rank state is built. A payload is written
// there once per run and passes to the receiver as a slice of it
// (mpi.SendOwned), which only reads it: nothing is recycled, and steady state
// allocates nothing per tile.

// outMsg is one message of the outbox: a packed payload and its envelope.
// The driver issues it with an ownership-transferring send, or queues it for
// a rank of its own group.
type outMsg struct {
	dst, tag int
	data     []float64
}

// pack is the compiled SEND into the outbox: for each direction the slot
// sends along (compiled: a valid successor and a non-empty region) the
// plan's run list turns packing into a few bulk copies into the send array,
// at the run's cursor. A slot below a crash's replay bound packs nothing and
// leaves the cursor: the crashed incarnation issued its sends
// (checkpoint.go), and its payloads are still where it packed them. Message
// order, tags and sizes are identical to the reference executor's per-point
// SEND (legacy_test.go), so mpi.Stats match bit for bit.
func (st *rankState) pack(sl *distrib.SlotPlan, t int64) {
	st.out = st.out[:0]
	if st.ckpt != nil && t < st.ckpt.replayTo {
		return
	}
	w := int64(st.p.Width)
	tOff := t * st.ChainStep
	for _, snd := range sl.Sends {
		i := snd.Dir
		buf := st.sends[st.sendAt:][:sl.Plan.Dirs[i].Total*w] // panics past the array's end
		for _, run := range sl.Plan.Dirs[i].Runs {
			cell := (run.Off + tOff) * w
			st.sendAt += copy(st.sends[st.sendAt:], st.la[cell:cell+run.N*w])
		}
		st.out = append(st.out, outMsg{st.SendRank[i], i, buf})
	}
}
