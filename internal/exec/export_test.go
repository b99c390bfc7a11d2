package exec

import "math"

// LargestTileSweep returns the compute phase of the chain slot with the most
// points — its rows only, no receive, boundary injection or send, over an
// LDS seeded with ordinary values — and that point count: what
// BenchmarkRowKernel times.
func (p *Program) LargestTileSweep() (sweep func(), points int, err error) {
	var st *rankState
	var t int
	for r := 0; r < p.Dist.NumProcs(); r++ {
		rp, err := p.Dist.Plan(r)
		if err != nil {
			return nil, 0, err
		}
		for i, sl := range rp.Slots {
			if sl.Plan.Npts <= points {
				continue
			}
			if st == nil || st.rank != r {
				if st, err = newRankState(p, r, RunOptions{}); err != nil {
					return nil, 0, err
				}
			}
			t, points = i, sl.Plan.Npts
		}
	}
	for i := range st.la {
		st.la[i] = 1 + float64(i%37)/64
	}
	sl := &st.Slots[t]
	st.pBase = sl.PBase
	return func() { st.computePhasePlanned(sl.Plan, int64(t)) }, points, nil
}

// Fused reports whether the kernel lowered to one fused instruction: one pass
// over a row.
func (k Kernel) Fused() bool { return k.stmt != nil && k.stmt.onePass && k.stmt.code[0].op == opSum }

// FillHeldLDS fills the LDS of every rank state p holds for its next run
// with NaN, and returns how many it filled: a run that takes them reads no
// cell it did not write, so its Global and Stats must not move.
func (p *Program) FillHeldLDS() int {
	n := 0
	for r := range p.idle {
		if st := p.idle[r].Load(); st != nil {
			for i := range st.la {
				st.la[i] = math.NaN()
			}
			n++
		}
	}
	return n
}
