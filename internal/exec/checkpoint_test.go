package exec_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"tilespace/internal/exec"
	"tilespace/internal/mpi"
)

// Crash-at-tile-k restart, proven differentially: for every workload ×
// tiling family of the differential matrix, killing a mid-chain rank
// halfway through its chain and restarting it from its last checkpoint
// must reproduce the fault-free Global bit for bit — and the fault-free
// mpi.Stats too, because a crash loses no issued send, re-execution sends
// none of them again, and claimed receives replay from the local log
// instead of the wire.
// The restore path poisons the LDS with NaN before copying the snapshot
// back, so any state the snapshot fails to cover corrupts the comparison
// instead of passing silently.
func TestCrashRestartEveryWorkload(t *testing.T) {
	for _, c := range diffCases(t) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			if testing.Short() && slowDiffCases[c.name] {
				t.Skipf("%s is one of the two slowest differential cases; run without -short", c.name)
			}
			crashRank := c.p.Dist.NumProcs() / 2
			crashTile := c.p.Dist.ChainLen[crashRank] / 2
			for _, overlap := range []bool{false, true} {
				want, wantStats, err := c.p.RunParallelOpts(exec.RunOptions{Overlap: overlap})
				if err != nil {
					t.Fatalf("fault-free overlap=%v: %v", overlap, err)
				}
				// Every=2 makes the snapshot generally precede the crash
				// tile, so recovery exercises receive replay and the resend
				// cursor, not just a trivial rewind.
				opt := exec.RunOptions{
					Overlap:    overlap,
					Net:        mpi.Options{Faults: &mpi.FaultPlan{Crash: map[int]int64{crashRank: crashTile}}},
					Checkpoint: &exec.CheckpointOptions{Every: 2},
				}
				got, gotStats, err := c.p.RunParallelOpts(opt)
				if err != nil {
					t.Fatalf("crash-restart overlap=%v (rank %d, tile %d): %v", overlap, crashRank, crashTile, err)
				}
				if diff, at := want.MaxAbsDiff(got, c.p.ScanSpace); diff != 0 {
					t.Fatalf("overlap=%v: restarted run differs from fault-free by %g at %v", overlap, diff, at)
				}
				if !reflect.DeepEqual(wantStats, gotStats) {
					t.Fatalf("overlap=%v: traffic stats differ after crash-restart\nfault-free: %+v\nrestarted:  %+v", overlap, wantStats, gotStats)
				}
				rerunOnNaN(t, c.p, opt, got, gotStats)
			}
		})
	}
}

// A crash at tile 0 restores from the implicit empty snapshot: the whole
// LDS is NaN-poisoned and rebuilt from scratch, proving tile 0 state
// depends on nothing but the protocol itself.
func TestCrashRestartAtTileZero(t *testing.T) {
	cs := diffCases(t)
	c := cs[0]
	want, wantStats, err := c.p.RunParallelOpts(exec.RunOptions{Overlap: true})
	if err != nil {
		t.Fatal(err)
	}
	got, gotStats, err := c.p.RunParallelOpts(exec.RunOptions{
		Overlap:    true,
		Net:        mpi.Options{Faults: &mpi.FaultPlan{Crash: map[int]int64{0: 0}}},
		Checkpoint: &exec.CheckpointOptions{Every: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if diff, at := want.MaxAbsDiff(got, c.p.ScanSpace); diff != 0 {
		t.Fatalf("restarted run differs by %g at %v", diff, at)
	}
	if !reflect.DeepEqual(wantStats, gotStats) {
		t.Fatalf("stats differ\nwant: %+v\ngot:  %+v", wantStats, gotStats)
	}
}

// Coarse checkpoints (Every larger than the chain) mean the crash rewinds
// to tile 0 with every claimed payload still held and every slot before the
// crash below the replay bound — the deepest replay the recovery layer
// supports.
func TestCrashRestartCoarseCheckpoint(t *testing.T) {
	cs := diffCases(t)
	c := cs[0]
	crashRank := c.p.Dist.NumProcs() / 2
	crashTile := c.p.Dist.ChainLen[crashRank] - 1
	if crashTile < 1 {
		t.Fatalf("chain of rank %d too short for a meaningful crash", crashRank)
	}
	for _, overlap := range []bool{false, true} {
		want, wantStats, err := c.p.RunParallelOpts(exec.RunOptions{Overlap: overlap})
		if err != nil {
			t.Fatal(err)
		}
		got, gotStats, err := c.p.RunParallelOpts(exec.RunOptions{
			Overlap:    overlap,
			Net:        mpi.Options{Faults: &mpi.FaultPlan{Crash: map[int]int64{crashRank: crashTile}, RestartDelay: time.Millisecond}},
			Checkpoint: &exec.CheckpointOptions{Every: 1 << 30},
		})
		if err != nil {
			t.Fatalf("overlap=%v: %v", overlap, err)
		}
		if diff, at := want.MaxAbsDiff(got, c.p.ScanSpace); diff != 0 {
			t.Fatalf("overlap=%v: differs by %g at %v", overlap, diff, at)
		}
		if !reflect.DeepEqual(wantStats, gotStats) {
			t.Fatalf("overlap=%v: stats differ\nwant: %+v\ngot:  %+v", overlap, wantStats, gotStats)
		}
	}
}

// Without checkpointing a crash is unrecoverable: the run must abort with
// a diagnostic naming the dead rank, not hang or return wrong data.
func TestCrashWithoutCheckpointAborts(t *testing.T) {
	cs := diffCases(t)
	c := cs[0]
	_, _, err := c.p.RunParallelOpts(exec.RunOptions{
		Overlap: true,
		Net: mpi.Options{
			Watchdog: 2 * time.Second,
			Faults:   &mpi.FaultPlan{Crash: map[int]int64{1: 1}},
		},
	})
	if err == nil {
		t.Fatal("crash without checkpointing returned no error")
	}
	if !strings.Contains(err.Error(), "crashed") || !strings.Contains(err.Error(), "rank 1") {
		t.Fatalf("abort diagnostic does not name the crash: %v", err)
	}
}

// A Resume snapshot of a rank the program does not have refuses the run,
// naming the rank, instead of being ignored by every rank.
func TestResumeOfUnknownRankRejected(t *testing.T) {
	c := diffCases(t)[0]
	for _, rank := range []int{-1, c.p.Dist.NumProcs()} {
		_, _, err := c.p.RunParallelOpts(exec.RunOptions{
			Checkpoint: &exec.CheckpointOptions{Resume: &exec.RankSnapshot{Rank: rank}},
		})
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("rank %d", rank)) {
			t.Errorf("Resume.Rank = %d: err = %v, want a refusal naming the rank", rank, err)
		}
	}
}

// An invalid fault plan refuses the run with the plan's error, on a fresh
// world and on a caller's world alike, instead of panicking.
func TestInvalidFaultPlanRejected(t *testing.T) {
	c := diffCases(t)[0]
	net := mpi.Options{Faults: &mpi.FaultPlan{Sends: &mpi.SendFaults{Rate: 2}}}
	w := mpi.NewWorldOpts(c.p.Dist.NumProcs(), mpi.Options{})
	defer w.Close()
	for name, world := range map[string]*mpi.World{"fresh": nil, "caller": w} {
		_, _, err := c.p.RunParallelOpts(exec.RunOptions{Net: net, World: world})
		if err == nil || !strings.Contains(err.Error(), "send-failure rate 2 outside [0,1]") {
			t.Errorf("%s world: err = %v, want the plan's validation error", name, err)
		}
	}
}

// The crashed rank's tracer must survive the restart: events from the
// dead incarnation stay in the timeline (re-executed tiles legitimately
// appear twice), and the crash/restart instants are marked.
func TestCrashRestartTraced(t *testing.T) {
	cs := diffCases(t)
	c := cs[0]
	tr := exec.NewTracer()
	crashRank := c.p.Dist.NumProcs() / 2
	_, _, err := c.p.RunParallelOpts(exec.RunOptions{
		Overlap:    true,
		Trace:      tr,
		Net:        mpi.Options{Faults: &mpi.FaultPlan{Crash: map[int]int64{crashRank: c.p.Dist.ChainLen[crashRank] / 2}}},
		Checkpoint: &exec.CheckpointOptions{Every: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	var crash, restart int
	for _, e := range tr.Trace().Events {
		switch e.Kind {
		case "crash":
			crash++
			if e.Rank != crashRank {
				t.Errorf("crash event on rank %d, want %d", e.Rank, crashRank)
			}
		case "restart":
			restart++
		}
	}
	if crash != 1 || restart != 1 {
		t.Fatalf("trace has %d crash and %d restart events, want 1 and 1", crash, restart)
	}
	m := tr.PerRank()[crashRank]
	if m.Crashes != 1 {
		t.Errorf("RankMetrics.Crashes = %d, want 1", m.Crashes)
	}
	// The Gantt and Chrome export must digest fault markers.
	g := tr.Trace().Gantt(60)
	if !strings.Contains(g, "!") {
		t.Errorf("gantt does not mark the fault:\n%s", g)
	}
	if _, err := tr.Trace().TraceEventJSON(); err != nil {
		t.Errorf("chrome export failed: %v", err)
	}
}
