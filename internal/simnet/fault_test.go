package simnet_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"tilespace/internal/apps"
	"tilespace/internal/mpi"
	"tilespace/internal/simnet"
)

// A fault-free FaultModel must change nothing: the fault path is a strict
// superset of the engine and the zero model must collapse to Simulate.
func TestSimulateFaultsNilPlanMatchesSimulate(t *testing.T) {
	app, err := apps.SOR(6, 12)
	if err != nil {
		t.Fatal(err)
	}
	d := distFor(t, app, app.Rect.H(3, 6, 7))
	par := simnet.FastEthernetPIII()
	want, err := simnet.Simulate(d, par)
	if err != nil {
		t.Fatal(err)
	}
	got, err := simnet.SimulateFaults(d, par, simnet.FaultModel{})
	if err != nil {
		t.Fatal(err)
	}
	if *want != *got {
		t.Errorf("empty fault model perturbed the simulation:\nwant %+v\ngot  %+v", want, got)
	}
}

// Each fault class must strictly lengthen the makespan and leave the
// logical work (points, messages, bytes) untouched — faults cost time,
// never results.
func TestSimulateFaultsDegradeMakespan(t *testing.T) {
	app, err := apps.SOR(6, 12)
	if err != nil {
		t.Fatal(err)
	}
	d := distFor(t, app, app.Rect.H(3, 6, 7))
	for _, overlap := range []bool{false, true} {
		par := simnet.FastEthernetPIII()
		par.Overlap = overlap
		base, err := simnet.Simulate(d, par)
		if err != nil {
			t.Fatal(err)
		}
		crashRank := d.NumProcs() / 2
		for _, tc := range []struct {
			name string
			plan *mpi.FaultPlan
		}{
			{"slow-rank", &mpi.FaultPlan{Slowdown: map[int]float64{crashRank: 4}}},
			{"delayed-link", &mpi.FaultPlan{Links: map[mpi.Link]mpi.LinkFault{
				{Src: 0, Dst: 1}: {Delay: time.Second, Jitter: time.Second},
			}}},
			{"retry-storm", &mpi.FaultPlan{Seed: 7, Sends: &mpi.SendFaults{
				Rate: 0.5, MaxRetries: 4, Backoff: 500 * time.Millisecond,
			}}},
			{"crash-restart", &mpi.FaultPlan{
				Crash:        map[int]int64{crashRank: d.ChainLen[crashRank] - 1},
				RestartDelay: time.Second,
			}},
		} {
			t.Run(tc.name, func(t *testing.T) {
				got, err := simnet.SimulateFaults(d, par, simnet.FaultModel{
					Plan: tc.plan, CheckpointEvery: 2, DurScale: 1,
				})
				if err != nil {
					t.Fatal(err)
				}
				if got.Makespan <= base.Makespan {
					t.Errorf("overlap=%v: makespan %v not degraded from %v", overlap, got.Makespan, base.Makespan)
				}
				if got.Points != base.Points || got.Messages != base.Messages || got.BytesSent != base.BytesSent {
					t.Errorf("overlap=%v: faults changed the logical work: %+v vs %+v", overlap, got, base)
				}
			})
		}
	}
}

// DurScale divides the plan's wall-clock durations into model seconds: the
// same plan at 10× scale must inject one tenth of the model-time penalty.
func TestSimulateFaultsDurScale(t *testing.T) {
	app, err := apps.SOR(6, 12)
	if err != nil {
		t.Fatal(err)
	}
	d := distFor(t, app, app.Rect.H(3, 6, 7))
	par := simnet.FastEthernetPIII()
	base, err := simnet.Simulate(d, par)
	if err != nil {
		t.Fatal(err)
	}
	plan := &mpi.FaultPlan{Links: map[mpi.Link]mpi.LinkFault{{Src: 0, Dst: 1}: {Delay: time.Second}}}
	at1, err := simnet.SimulateFaults(d, par, simnet.FaultModel{Plan: plan, DurScale: 1})
	if err != nil {
		t.Fatal(err)
	}
	at10, err := simnet.SimulateFaults(d, par, simnet.FaultModel{Plan: plan, DurScale: 10})
	if err != nil {
		t.Fatal(err)
	}
	d1, d10 := at1.Makespan-base.Makespan, at10.Makespan-base.Makespan
	if d1 <= 0 || d10 <= 0 {
		t.Fatalf("expected degradation at both scales, got %v and %v", d1, d10)
	}
	// The delayed link sits on the critical path here, so the penalties
	// compose additively and the ratio is exact.
	if ratio := d1 / d10; ratio < 9.99 || ratio > 10.01 {
		t.Errorf("degradation ratio %v, want 10 (DurScale must divide plan durations)", ratio)
	}
}

// Deeper checkpoints mean longer re-execution after a crash: Every=chain
// must predict a makespan no shorter than Every=1, and a late crash with
// coarse snapshots must charge roughly the whole chain again.
func TestSimulateFaultsCheckpointDepth(t *testing.T) {
	app, err := apps.SOR(6, 12)
	if err != nil {
		t.Fatal(err)
	}
	d := distFor(t, app, app.Rect.H(3, 6, 7))
	par := simnet.FastEthernetPIII()
	// Compute-bound costs: the crashed rank has no idle slack to hide the
	// re-execution charge in, so it must show up in the makespan.
	par.IterTime = 1e-3
	crashRank := d.NumProcs() / 2
	plan := &mpi.FaultPlan{Crash: map[int]int64{crashRank: d.ChainLen[crashRank] - 1}}
	fine, err := simnet.SimulateFaults(d, par, simnet.FaultModel{Plan: plan, CheckpointEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	coarse, err := simnet.SimulateFaults(d, par, simnet.FaultModel{Plan: plan, CheckpointEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if coarse.Makespan <= fine.Makespan {
		t.Errorf("coarse checkpoint makespan %v not above fine %v", coarse.Makespan, fine.Makespan)
	}
}

// The traced variant must mark the crash and restart instants so the
// predicted Gantt lines up with the measured one.
func TestSimulateFaultsTraced(t *testing.T) {
	app, err := apps.SOR(6, 12)
	if err != nil {
		t.Fatal(err)
	}
	d := distFor(t, app, app.Rect.H(3, 6, 7))
	par := simnet.FastEthernetPIII()
	crashRank := d.NumProcs() / 2
	tr, err := simnet.SimulateFaultsTraced(d, par, simnet.FaultModel{
		Plan: &mpi.FaultPlan{
			Crash:        map[int]int64{crashRank: d.ChainLen[crashRank] / 2},
			RestartDelay: 100 * time.Millisecond,
		},
		CheckpointEvery: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	var crash, restart int
	for _, e := range tr.Events {
		switch e.Kind {
		case "crash":
			crash++
			if e.Rank != crashRank {
				t.Errorf("crash on rank %d, want %d", e.Rank, crashRank)
			}
		case "restart":
			restart++
		}
	}
	if crash != 1 || restart != 1 {
		t.Fatalf("trace has %d crash / %d restart events, want 1 / 1", crash, restart)
	}
	if g := tr.Gantt(60); !strings.Contains(g, "!") {
		t.Errorf("gantt does not mark the fault:\n%s", g)
	}
	if _, err := tr.TraceEventJSON(); err != nil {
		t.Errorf("chrome export failed: %v", err)
	}
}

// A chain the protocol compiler could not finish (a neighbour processor
// without a rank) fails the simulation with the compiler's error, faults or
// none — it is not skipped over.
func TestSimulateSurfacesChainError(t *testing.T) {
	app, err := apps.SOR(6, 12)
	if err != nil {
		t.Fatal(err)
	}
	d := distFor(t, app, app.Rect.H(3, 6, 7))
	rp, err := d.Schedule(0)
	if err != nil {
		t.Fatal(err)
	}
	rp.Err = errors.New("distrib: rank 0: successor pid has no rank")
	if _, err := simnet.Simulate(d, simnet.FastEthernetPIII()); !errors.Is(err, rp.Err) {
		t.Errorf("Simulate returned %v, want the chain's error", err)
	}
	plan := &mpi.FaultPlan{Links: map[mpi.Link]mpi.LinkFault{{Src: 0, Dst: 1}: {Delay: time.Second}}}
	if _, err := simnet.SimulateFaults(d, simnet.FastEthernetPIII(), simnet.FaultModel{Plan: plan}); !errors.Is(err, rp.Err) {
		t.Errorf("SimulateFaults returned %v, want the chain's error", err)
	}
}
