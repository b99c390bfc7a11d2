package exec

import (
	"fmt"
	"time"
)

// ComputeSweep times `rounds` compute-phase sweeps (no communication, init
// or write-back, over a deterministically seeded LDS) of rank `rank`'s whole
// tile chain, and returns the points of one sweep and the best wall time.
//
// Deprecated: workers is ignored; the function stays only for benchmark/'s
// exec.sweep_mpts_per_s_* rows.
func (p *Program) ComputeSweep(rank, workers, rounds int) (points int64, seconds float64, err error) {
	if rank < 0 || rank >= p.Dist.NumProcs() {
		return 0, 0, fmt.Errorf("exec: ComputeSweep rank %d out of range [0, %d)", rank, p.Dist.NumProcs())
	}
	if rounds < 1 {
		rounds = 1
	}
	st, err := newRankState(p, rank, RunOptions{})
	if err != nil {
		return 0, 0, err
	}
	for i := range st.la {
		st.la[i] = float64(i%101)*0.5 - 12.25
	}
	sweep := func() {
		for t := range st.Slots {
			sl := &st.Slots[t]
			st.pBase = sl.PBase
			st.computePhasePlanned(sl.Plan, int64(t))
		}
	}
	for t := range st.Slots {
		points += int64(st.Slots[t].Plan.Npts)
	}
	sweep() // warm up
	for r := 0; r < rounds; r++ {
		start := time.Now()
		sweep()
		if el := time.Since(start).Seconds(); seconds == 0 || el < seconds {
			seconds = el
		}
	}
	return points, seconds, nil
}
