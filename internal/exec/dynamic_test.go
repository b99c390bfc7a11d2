package exec_test

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"tilespace/internal/exec"
	"tilespace/internal/mpi"
	"tilespace/internal/verify"
)

// The hybrid static/dynamic battery. Three claims pin the dynamic mode to
// the static one: (1) the Global is bit-identical to the sequential oracle
// and the static executor for every app × tiling × transport, (2) the
// traffic Stats equal the static overlap mode's exactly — the wire sees
// the identical message sequence, only timing moves, and (3) every
// observed firing order is certified by verify.CheckDynamicOrder as a
// linear extension of the dependence order, including under every chaos
// fault class (where keep-first recording across crash rewinds is what
// makes the certificate hold).

// TestDynamicMatchesStaticDifferential is the full differential matrix:
// every workload × tiling family × {channel, TCP} must produce
// bit-identical results and equal Stats in dynamic mode, and the recorded
// firing order must certify.
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
				log := &exec.FiringLog{}
				run := c.p.RunParallelOpts
				if wire == "tcp" {
					run = func(opt exec.RunOptions) (*exec.Global, mpi.Stats, error) { return runOverTCP(t, c.p, opt) }
				}
				gD, sD, err := run(exec.RunOptions{Dynamic: true, Firing: log})
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
				edges, err := verify.CheckDynamicOrder(c.p.TS, c.p.Dist, log.Records())
				if err != nil {
					t.Fatalf("wire=%v: firing order not certified: %v", wire, err)
				}
				if c.p.Dist.NumProcs() > 1 && edges == 0 {
					t.Fatalf("wire=%v: certificate proved zero dependence edges on a %d-rank program", wire, c.p.Dist.NumProcs())
				}
			}
		})
	}
}

// TestChaosMatrixDynamic runs the dynamic scheduler under every fault
// class × worker count: results and Stats must match the fault-free
// static overlap run, the firing order must still certify (crash-restart
// exercises keep-first recording with a live worker pool), and teardown
// must leak no goroutines.
func TestChaosMatrixDynamic(t *testing.T) {
	seed := chaosSeed(t)
	for _, c := range chaosCases(t) {
		c := c
		for _, w := range workerCounts() {
			if testing.Short() && w > 1 {
				continue
			}
			want, wantStats, err := c.p.RunParallelOpts(exec.RunOptions{Workers: w, Overlap: true})
			if err != nil {
				t.Fatalf("%s workers=%d fault-free static: %v", c.name, w, err)
			}
			for _, f := range chaosFaults(t, seed, c.p.Dist) {
				f := f
				t.Run(fmt.Sprintf("%s/workers=%d/%s", c.name, w, f.name), func(t *testing.T) {
					before := runtime.NumGoroutine()
					log := &exec.FiringLog{}
					got, gotStats, err := c.p.RunParallelOpts(exec.RunOptions{
						Dynamic:    true,
						Workers:    w,
						Firing:     log,
						Net:        f.net,
						Checkpoint: f.ck,
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
					if _, err := verify.CheckDynamicOrder(c.p.TS, c.p.Dist, log.Records()); err != nil {
						t.Fatalf("firing order under %s not certified: %v", f.name, err)
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

// certifiedFiring produces a certified firing log for mutation tests: a
// real dynamic run of a multi-rank program, so mutations are injected
// into a log the certifier provably accepts.
func certifiedFiring(t *testing.T) (diffCase, []verify.FiringRecord) {
	t.Helper()
	c := chaosCases(t)[0]
	log := &exec.FiringLog{}
	if _, _, err := c.p.RunParallelOpts(exec.RunOptions{Dynamic: true, Firing: log}); err != nil {
		t.Fatal(err)
	}
	recs := log.Records()
	if _, err := verify.CheckDynamicOrder(c.p.TS, c.p.Dist, recs); err != nil {
		t.Fatalf("baseline log not certified: %v", err)
	}
	return c, recs
}

// violationOf asserts err is a *verify.Violation of the wanted rule with a
// concrete counterexample tile, and returns it.
func violationOf(t *testing.T, err error, rule string) *verify.Violation {
	t.Helper()
	if err == nil {
		t.Fatalf("mutated log certified — %s mutation not rejected", rule)
	}
	var v *verify.Violation
	if !errors.As(err, &v) {
		t.Fatalf("%s mutation rejected without a Violation: %v", rule, err)
	}
	if v.Rule != rule {
		t.Fatalf("%s mutation rejected under rule %q: %v", rule, v.Rule, err)
	}
	if v.Tile == nil {
		t.Fatalf("%s violation carries no counterexample tile: %v", rule, err)
	}
	return v
}

// Seeded mutations of a certified firing log: each of the three dynamic
// scheduler bug classes must be rejected with a concrete tile
// counterexample.
func TestCheckDynamicOrderRejectsMutations(t *testing.T) {
	c, recs := certifiedFiring(t)

	t.Run("fire-before-dependence", func(t *testing.T) {
		// Pick a chain-head tile (slot 0: no intra-rank predecessor, so the
		// static tie-break stays intact) with a cross-rank dependence, and
		// collapse its Seq onto its latest-firing predecessor's — the tile
		// now fires no later than a dependence source.
		mut := append([]verify.FiringRecord(nil), recs...)
		seqOf := map[string]int64{}
		for _, r := range recs {
			seqOf[r.Tile.String()] = r.Seq
		}
		victim := -1
		var predSeq int64
		for i, r := range mut {
			if r.Slot != 0 {
				continue
			}
			best := int64(-1)
			for _, dS := range c.p.TS.DS {
				pred := r.Tile.Sub(dS)
				if !c.p.TS.ValidTile(pred) {
					continue
				}
				if ps, ok := seqOf[pred.String()]; ok && ps > best {
					best = ps
				}
			}
			if best >= 0 {
				victim, predSeq = i, best
				break
			}
		}
		if victim < 0 {
			t.Fatal("no chain-head tile with a cross-rank dependence found")
		}
		mut[victim].Seq = predSeq
		v := violationOf(t, func() error {
			_, err := verify.CheckDynamicOrder(c.p.TS, c.p.Dist, mut)
			return err
		}(), "dynamic-order")
		if !v.Tile.Equal(mut[victim].Tile) {
			t.Fatalf("counterexample names tile %v, mutation was at %v", v.Tile, mut[victim].Tile)
		}
	})

	t.Run("dropped-decrement", func(t *testing.T) {
		// Drop one tile's firing record: its dependence counter was never
		// released, so the task never ran.
		drop := len(recs) / 2
		mut := append(append([]verify.FiringRecord(nil), recs[:drop]...), recs[drop+1:]...)
		v := violationOf(t, func() error {
			_, err := verify.CheckDynamicOrder(c.p.TS, c.p.Dist, mut)
			return err
		}(), "dynamic-coverage")
		if !v.Tile.Equal(recs[drop].Tile) {
			t.Fatalf("counterexample names tile %v, dropped record was %v", v.Tile, recs[drop].Tile)
		}
	})

	t.Run("stale-epoch-fire", func(t *testing.T) {
		// Re-fire an already-committed tile at the end of the run — a
		// rewound or duplicated task re-entering the pool.
		stale := recs[len(recs)/3]
		stale.Seq = int64(len(recs))
		mut := append(append([]verify.FiringRecord(nil), recs...), stale)
		v := violationOf(t, func() error {
			_, err := verify.CheckDynamicOrder(c.p.TS, c.p.Dist, mut)
			return err
		}(), "dynamic-duplicate")
		if !v.Tile.Equal(stale.Tile) {
			t.Fatalf("counterexample names tile %v, stale fire was %v", v.Tile, stale.Tile)
		}
	})
}
