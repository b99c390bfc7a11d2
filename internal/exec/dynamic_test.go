package exec_test

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"tilespace/internal/exec"
	"tilespace/internal/mpi"
)

// The hybrid static/dynamic battery. Two claims pin the dynamic mode to the
// static one: (1) the Global is bit-identical to the sequential oracle and
// the static executor for every app × tiling × transport, and (2) the
// traffic Stats equal the static overlap mode's exactly — the wire sees the
// identical message sequence, only timing moves — including under every
// chaos fault class. The firing order needs no run-time check: the chain
// fixes it (next gates fire on every inbound row of the slot, and the slot
// index only increments), and verify.Certify proves on the compiled tables
// that every read resolves to its source iteration.

// TestDynamicMatchesStaticDifferential is the full differential matrix:
// every workload × tiling family × {channel, TCP} must produce
// bit-identical results and equal Stats in dynamic mode.
func TestDynamicMatchesStaticDifferential(t *testing.T) {
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
			gS, sS, err := c.p.RunParallelOpts(exec.RunOptions{Overlap: true})
			if err != nil {
				t.Fatalf("static overlap: %v", err)
			}
			wires := []string{"channel", "tcp"}
			if testing.Short() {
				wires = wires[:1] // the TCP transport matrix has its own CI job
			}
			for _, wire := range wires {
				run := c.p.RunParallelOpts
				if wire == "tcp" {
					run = func(opt exec.RunOptions) (*exec.Global, mpi.Stats, error) { return runOverTCP(t, c.p, opt) }
				}
				gD, sD, err := run(exec.RunOptions{Dynamic: true})
				if err != nil {
					t.Fatalf("dynamic wire=%v: %v", wire, err)
				}
				if diff, at := seq.MaxAbsDiff(gD, c.p.ScanSpace); diff != 0 {
					t.Fatalf("wire=%v: dynamic differs from sequential by %g at %v", wire, diff, at)
				}
				if diff, at := gS.MaxAbsDiff(gD, c.p.ScanSpace); diff != 0 {
					t.Fatalf("wire=%v: dynamic differs from static by %g at %v", wire, diff, at)
				}
				if !reflect.DeepEqual(sS, sD) {
					t.Fatalf("wire=%v: traffic stats differ\nstatic:  %+v\ndynamic: %+v", wire, sS, sD)
				}
			}
		})
	}
}

// TestChaosMatrixDynamic runs the dynamic scheduler under every fault
// class × runtime worker-thread count: results and Stats must match the
// fault-free static overlap run, and teardown must leak no goroutines.
func TestChaosMatrixDynamic(t *testing.T) {
	seed := chaosSeed(t)
	for _, c := range chaosCases(t) {
		c := c
		want, wantStats, err := c.p.RunParallelOpts(exec.RunOptions{Overlap: true})
		if err != nil {
			t.Fatalf("%s fault-free static: %v", c.name, err)
		}
		for _, w := range workerCounts() {
			if testing.Short() && w > 1 {
				continue
			}
			for _, f := range chaosFaults(t, seed, c.p.Dist) {
				f := f
				t.Run(fmt.Sprintf("%s/workers=%d/%s", c.name, w, f.name), func(t *testing.T) {
					before := runtime.NumGoroutine()
					var (
						got      *exec.Global
						gotStats mpi.Stats
						err      error
					)
					withWorkers(w, func() {
						got, gotStats, err = c.p.RunParallelOpts(exec.RunOptions{
							Dynamic:    true,
							Net:        f.net,
							Checkpoint: f.ck,
						})
					})
					if err != nil {
						t.Fatalf("faulty dynamic run: %v", err)
					}
					if diff, at := want.MaxAbsDiff(got, c.p.ScanSpace); diff != 0 {
						t.Fatalf("faulty dynamic run differs from fault-free static by %g at %v", diff, at)
					}
					if f.name == "transient-send-failure" {
						if gotStats.SendRetries == 0 {
							t.Error("no retries injected — the fault class is inert at this seed")
						}
						gotStats = dropRetries(gotStats)
					}
					if !reflect.DeepEqual(wantStats, gotStats) {
						t.Fatalf("traffic stats drifted under faults\nstatic:  %+v\ndynamic: %+v", wantStats, gotStats)
					}
					checkGoroutines(t, before)
				})
			}
		}
	}
}

// A dynamic run that crashes without checkpointing must abort cleanly,
// like the static path.
func TestDynamicAbortLeaksNothing(t *testing.T) {
	c := chaosCases(t)[0]
	before := runtime.NumGoroutine()
	_, _, err := c.p.RunParallelOpts(exec.RunOptions{
		Dynamic: true,
		Net:     mpi.Options{Faults: &mpi.FaultPlan{Crash: map[int]int64{1: 0}}},
	})
	if err == nil {
		t.Fatal("crash without checkpointing returned no error")
	}
	checkGoroutines(t, before)
}

// Option validation: the dynamic scheduler requires the in-process
// recovery layer.
func TestDynamicOptionValidation(t *testing.T) {
	c := diffCases(t)[0]
	save := func(*exec.RankSnapshot) error { return nil }
	for name, ck := range map[string]*exec.CheckpointOptions{
		"Save":   {Save: save},
		"Resume": {Resume: &exec.RankSnapshot{}},
	} {
		if _, _, err := c.p.RunParallelOpts(exec.RunOptions{Dynamic: true, Checkpoint: ck}); err == nil {
			t.Errorf("Dynamic+Checkpoint.%s was accepted", name)
		}
	}
}
