package exec

import "tilespace/internal/distrib"

// This file holds run-based packing into the rank's outbox (bulk copies over
// the plan's LDS runs; unpack is its mirror in receive.go) and the buffer
// pool. A sender packs into a pooled buffer, ownership rides the message
// (mpi.SendOwned/IsendOwned) to the receiver, which recycles it into its own
// pool — or, within a group, back into the sender's: steady state allocates
// nothing per tile.

// maxPoolBufs bounds the freelist; a rank rarely holds more live buffers
// than it has processor directions, but unbalanced chains can briefly
// accumulate extras.
const maxPoolBufs = 32

// bufPool is a per-rank freelist of message buffers. Not safe for
// concurrent use: each rank owns exactly one.
type bufPool struct {
	free [][]float64
	// hits/misses feed the tracer's pool-effectiveness metric; plain int
	// increments, so they cost nothing measurable with tracing off.
	hits   int
	misses int
}

// get returns a length-n buffer, reusing the freelist when a large enough
// buffer is available.
func (p *bufPool) get(n int) []float64 {
	for i := len(p.free) - 1; i >= 0; i-- {
		if cap(p.free[i]) >= n {
			b := p.free[i][:n]
			last := len(p.free) - 1
			p.free[i] = p.free[last]
			p.free[last] = nil
			p.free = p.free[:last]
			p.hits++
			return b
		}
	}
	p.misses++
	return make([]float64, n)
}

// put recycles a buffer the rank owns (a received message after
// unpacking). Recycling the same buffer twice would hand one backing array
// to two future messages — silent data corruption — so aliasing an entry
// already in the freelist panics. The scan is at most maxPoolBufs pointer
// compares, off the hot path.
func (p *bufPool) put(b []float64) {
	if cap(b) == 0 {
		return
	}
	for _, f := range p.free {
		if len(f) > 0 && len(b) > 0 && &f[0] == &b[0] {
			panic("exec: bufPool.put: buffer is already in the pool (double recycle)")
		}
	}
	if len(p.free) >= maxPoolBufs {
		return
	}
	p.free = append(p.free, b)
}

// outMsg is one message of the outbox: a packed buffer and its envelope.
// The driver issues it with an ownership-transferring send, or queues it for
// a rank of its own group.
type outMsg struct {
	dst, tag int
	data     []float64
}

// pack is the compiled SEND into the outbox: for each direction the slot
// sends along (compiled: a valid successor and a non-empty region) the
// plan's run list turns packing into a few bulk copies into a pooled buffer,
// which the receiver recycles. A slot below a crash's replay bound packs
// nothing: the crashed incarnation issued its sends (checkpoint.go).
// Message order, tags and sizes are identical to the reference executor's
// per-point SEND (legacy_test.go), so mpi.Stats match bit for bit.
func (st *rankState) pack(sl *distrib.SlotPlan, t int64) {
	st.out = st.out[:0]
	if st.ckpt != nil && t < st.ckpt.replayTo {
		return
	}
	w := st.p.Width
	tOff := t * st.ChainStep
	for _, snd := range sl.Sends {
		i := snd.Dir
		dir := &sl.Plan.Dirs[i]
		buf := st.pool.get(int(dir.Total) * w)
		pos := 0
		for _, run := range dir.Runs {
			cell := (run.Off + tOff) * int64(w)
			nn := int(run.N) * w
			copy(buf[pos:pos+nn], st.la[cell:cell+int64(nn)])
			pos += nn
		}
		st.out = append(st.out, outMsg{st.SendRank[i], i, buf})
	}
}
