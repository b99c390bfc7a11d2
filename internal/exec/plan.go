package exec

import "tilespace/internal/distrib"

// This file interprets the address level of the distribution's compiled
// protocol (distrib/protocol.go) — the static half of the executor's
// static/dynamic split, plain tables shared read-only by every rank of every
// run and read by the certifier and the simulator too. The paper's generated
// code walks the LDS with incremental (strength-reduced) addresses, never
// dividing per point; the reference executor (legacy_test.go) re-derives
// every address through rat.FloorDiv, n·(q+1) divisions per iteration point.
// Here a distrib.TilePlan is replayed as pure slice arithmetic: offsets
// recorded at chain slot 0 serve every tile of the shape (add t·ChainStep),
// and the global iteration point is the slot's P·j^S plus the plan's per-point
// U·z. What remains per run is the LDS, the message buffers and a little
// scratch (newRankState).

// computePhasePlanned sweeps the tile through the compiled address
// program: zero divisions, zero map lookups, zero allocations per point.
func (st *rankState) computePhasePlanned(pl *distrib.TilePlan, t int64) {
	w := int64(st.p.Width)
	n := st.p.TS.T.N
	q := len(st.dps)
	tOff := t * st.ChainStep
	la := st.la
	j := st.jBuf
	reads := st.reads
	pBase := st.pBase
	for i := 0; i < pl.Npts; i++ {
		uz := pl.Uz[i*n : i*n+n]
		for k := 0; k < n; k++ {
			j[k] = pBase[k] + uz[k]
		}
		ro := pl.ReadOff[i*q : i*q+q]
		for l := 0; l < q; l++ {
			cell := (ro[l] + tOff) * w
			reads[l] = la[cell : cell+w]
		}
		out := (pl.WriteOff[i] + tOff) * w
		st.p.Kernel(j, reads, la[out:out+w])
	}
	st.markDirty((pl.MaxWrite + tOff + 1) * w)
	st.chargePointDelay(int64(pl.Npts))
}

// initPhasePlanned injects Initial values by replaying the slot's compiled
// boundary-read list: one Initial call per read whose source lies outside
// the iteration space, and no containment test.
func (st *rankState) initPhasePlanned(sl *distrib.SlotPlan, t int64) {
	if len(sl.Boundary) == 0 {
		return
	}
	pl := sl.Plan
	w := int64(st.p.Width)
	n := st.p.TS.T.N
	q := len(st.deps)
	tOff := t * st.ChainStep
	for _, ri := range sl.Boundary {
		uz := pl.Uz[int(ri)/q*n:]
		dep := st.deps[int(ri)%q]
		for k := 0; k < n; k++ {
			st.srcBuf[k] = sl.PBase[k] + uz[k] - dep[k]
		}
		st.p.Initial(st.srcBuf, st.initBuf)
		cell := (pl.ReadOff[ri] + tOff) * w
		copy(st.la[cell:cell+w], st.initBuf)
	}
	st.markDirty((pl.MaxRead + tOff + 1) * w)
}
