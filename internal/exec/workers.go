package exec

import (
	"runtime"
	"sync"
	"time"

	"tilespace/internal/distrib"
	"tilespace/internal/ilin"
)

// workerPool is one rank's fixed intra-tile worker pool. Workers are
// spawned once per run and live until the rank's chain ends (or aborts —
// teardown is deferred in runRank, so crash panics unwind through it).
// A dispatch splits one wavefront's rows across the workers by
// point count, hands every worker its segment and waits for all of them:
// the pool is always idle between fronts, between tiles, and therefore
// across checkpoint commits and crash rewinds — the recovery layer never
// observes a worker mid-flight.
//
// Steady state allocates nothing: dispatch state travels through fields
// written before the per-worker channel sends (the send/receive pair and
// the WaitGroup give the happens-before edges both ways), and each worker
// owns preallocated scratch. Determinism is structural, not scheduled:
// workers write disjoint LDS cells and read only earlier wavefronts, so
// output is bit-identical to the serial sweep for any pool size.
type workerPool struct {
	n    int
	sigs []chan struct{}
	wg   sync.WaitGroup

	// Dispatch arguments for the current front (rank-written, worker-read).
	st *rankState
	pl *distrib.TilePlan
	f  *distrib.FrontPlan
	t  int64
	// segs[w] is worker w's [lo, hi) slice of the front's rows.
	segs [][2]int

	// panics[w] captures worker w's panic; the rank re-raises it after the
	// barrier so abort semantics match the serial path exactly.
	panics []any

	// busy[w] accumulates worker w's in-segment wall time (traced runs
	// only) for per-worker phase attribution in RankMetrics.
	busy   []time.Duration
	traced bool
}

// effectiveWorkers resolves RunOptions.Workers: an explicit count wins; 0
// divides GOMAXPROCS across the ranks sharing this process (at least 1),
// so the default never oversubscribes the host. The choice only affects
// speed — results are bit-identical for every value.
func effectiveWorkers(req, ranks int) int {
	if req > 0 {
		return req
	}
	if ranks < 1 {
		ranks = 1
	}
	w := runtime.GOMAXPROCS(0) / ranks
	if w < 1 {
		w = 1
	}
	return w
}

func newWorkerPool(st *rankState, n int) *workerPool {
	wp := &workerPool{
		n:      n,
		sigs:   make([]chan struct{}, n),
		segs:   make([][2]int, n),
		panics: make([]any, n),
		busy:   make([]time.Duration, n),
		traced: st.tr != nil,
	}
	for i := 0; i < n; i++ {
		wp.sigs[i] = make(chan struct{}, 1)
		// Each worker evaluates rows on scratch of its own, so concurrent
		// segments never share mutable state.
		go wp.work(i, newRowEval(st))
	}
	return wp
}

func (wp *workerPool) work(id int, ev *rowEval) {
	for range wp.sigs[id] {
		wp.runSeg(id, ev)
	}
}

// runSeg executes this worker's segment of the dispatched front. The
// deferred finishSeg (a plain method call — no closure, no allocation)
// captures a panic and always reaches the barrier, so a panicking kernel
// cannot deadlock the rank.
func (wp *workerPool) runSeg(id int, ev *rowEval) {
	defer wp.finishSeg(id)
	var t0 time.Time
	if wp.traced {
		t0 = time.Now()
	}
	seg := wp.segs[id]
	ev.rows(wp.st, wp.pl, wp.f.Rows, seg[0], seg[1], wp.t)
	if wp.traced {
		wp.busy[id] += time.Since(t0)
	}
}

func (wp *workerPool) finishSeg(id int) {
	if r := recover(); r != nil {
		wp.panics[id] = r
	}
	wp.wg.Done()
}

// dispatch runs one wavefront on the pool and blocks until every worker
// finished its segment; a worker panic is re-raised on the rank goroutine
// after the barrier (all workers idle again), preserving the serial
// path's abort behaviour.
func (wp *workerPool) dispatch(st *rankState, pl *distrib.TilePlan, f *distrib.FrontPlan, t int64) {
	wp.st, wp.pl, wp.f, wp.t = st, pl, f, t
	wp.segs = ilin.SplitByWeight(wp.segs, f.Weights, wp.n)
	wp.wg.Add(wp.n)
	for _, sig := range wp.sigs {
		sig <- struct{}{}
	}
	wp.wg.Wait()
	for id, p := range wp.panics {
		if p != nil {
			wp.panics[id] = nil
			panic(p)
		}
	}
}

// close terminates the workers; safe on a nil pool and after a panic
// unwound the rank goroutine (workers are idle outside dispatch).
func (wp *workerPool) close() {
	if wp == nil {
		return
	}
	for _, sig := range wp.sigs {
		close(sig)
	}
}
