package exec

import (
	"fmt"
	"time"
)

// ComputeSweep times `rounds` compute-phase sweeps over rank `rank`'s whole
// tile chain with the given worker count and returns the number of points
// one sweep computes plus the best-of-rounds wall time. workers <= 1 runs
// the serial planned executor; larger counts run the wavefront worker pool
// exactly as RunParallelOpts would.
//
// The sweep isolates the compute phase — no communication, init or
// write-back — so the ratio between two worker counts is the intra-tile
// parallel efficiency itself, not an Amdahl blend with the serial phases.
// The LDS is seeded deterministically and every worker count computes
// bit-identical values (the linear-extension theorem verify.Certify
// proves), so repeated rounds and different pool sizes read identical
// inputs. Exported for benchmark/'s exec.sweep_mpts_per_s_* rows; not part
// of the execution API proper.
func (p *Program) ComputeSweep(rank, workers, rounds int) (points int64, seconds float64, err error) {
	if rank < 0 || rank >= p.Dist.NumProcs() {
		return 0, 0, fmt.Errorf("exec: ComputeSweep rank %d out of range [0, %d)", rank, p.Dist.NumProcs())
	}
	if workers < 1 {
		workers = 1
	}
	if rounds < 1 {
		rounds = 1
	}
	st, err := newRankState(p, rank, RunOptions{Workers: workers})
	if err != nil {
		return 0, 0, err
	}
	if st.workers > 1 {
		st.wpool = newWorkerPool(st, st.workers)
		defer st.wpool.close()
	}
	for i := range st.la {
		st.la[i] = float64(i%101)*0.5 - 12.25
	}
	sweep := func() {
		for t := range st.Slots {
			sl := &st.Slots[t]
			st.pBase = sl.PBase
			if st.wpool != nil {
				st.computePhaseParallel(sl.Plan, int64(t))
			} else {
				st.computePhasePlanned(sl.Plan, int64(t))
			}
		}
	}
	for t := range st.Slots {
		points += int64(st.Slots[t].Plan.Npts)
	}
	sweep() // warm up: compile local plans, spin up the pool
	for r := 0; r < rounds; r++ {
		start := time.Now()
		sweep()
		if el := time.Since(start).Seconds(); seconds == 0 || el < seconds {
			seconds = el
		}
	}
	return points, seconds, nil
}
