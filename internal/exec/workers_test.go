package exec_test

import (
	"reflect"
	"runtime"
	"testing"

	"tilespace/internal/exec"
	"tilespace/internal/mpi"
)

// The worker matrix: ranks are the only unit of parallelism, and the Go
// runtime multiplexes them onto GOMAXPROCS worker threads. A run's Global
// and traffic stats must not depend on how many threads that is — one
// thread forces every rank to interleave on a single core, more threads
// let them race.

// workerCounts is the thread-count axis: a single thread, an odd count
// that need not match the host, and whatever parallelism the host has.
func workerCounts() []int {
	out := []int{1, 3}
	if g := runtime.GOMAXPROCS(0); g != 1 && g != 3 {
		out = append(out, g)
	}
	return out
}

// withWorkers calls f with the runtime on n worker threads and restores
// the previous count afterwards. No test in this package is parallel, so
// the process-wide setting is the caller's alone.
func withWorkers(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

func TestWorkerMatrixDifferential(t *testing.T) {
	for _, c := range diffCases(t) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			if testing.Short() && slowDiffCases[c.name] {
				t.Skipf("%s is one of the two slowest differential cases; run without -short", c.name)
			}
			seq, err := c.p.RunSequential()
			if err != nil {
				t.Fatal(err)
			}
			for _, overlap := range []bool{false, true} {
				want, wantStats, err := c.p.RunParallelOpts(exec.RunOptions{Overlap: overlap})
				if err != nil {
					t.Fatalf("overlap=%v: %v", overlap, err)
				}
				if diff, at := seq.MaxAbsDiff(want, c.p.ScanSpace); diff != 0 {
					t.Fatalf("overlap=%v: differs from sequential by %g at %v", overlap, diff, at)
				}
				for _, w := range workerCounts() {
					var (
						got      *exec.Global
						gotStats mpi.Stats
						err      error
					)
					withWorkers(w, func() {
						got, gotStats, err = c.p.RunParallelOpts(exec.RunOptions{Overlap: overlap})
					})
					if err != nil {
						t.Fatalf("workers=%d overlap=%v: %v", w, overlap, err)
					}
					if diff, at := want.MaxAbsDiff(got, c.p.ScanSpace); diff != 0 {
						t.Fatalf("workers=%d overlap=%v: differs from the default thread count by %g at %v",
							w, overlap, diff, at)
					}
					if !reflect.DeepEqual(wantStats, gotStats) {
						t.Fatalf("workers=%d overlap=%v: traffic stats drifted\ndefault: %+v\nthreads: %+v",
							w, overlap, wantStats, gotStats)
					}
				}
			}
		})
	}
}
