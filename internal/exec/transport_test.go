package exec_test

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"tilespace/internal/exec"
	"tilespace/internal/mpi"
	"tilespace/internal/procrun"
)

// This file is the transport differential matrix: every workload ×
// tiling family of the differential suite must produce a bit-identical
// Global AND bit-identical mpi.Stats whether its messages move over the
// in-process channel fabric or over real loopback TCP sockets with
// framed, coalesced sends. WireStats (frames, batches, bytes) are the
// only permitted difference — they do not exist on the channel fabric.

// runOverTCP runs p under opt on a fresh loopback-TCP world — every message
// crosses a real socket — and closes the world before returning, so the
// caller's goroutine-leak check covers the mesh's teardown too.
func runOverTCP(t *testing.T, p *exec.Program, opt exec.RunOptions) (*exec.Global, mpi.Stats, error) {
	t.Helper()
	w, err := mpi.NewTCPWorld(p.Dist.NumProcs(), opt.Net)
	if err != nil {
		t.Fatalf("tcp world: %v", err)
	}
	defer w.Close()
	opt.World = w
	return p.RunParallelOpts(opt)
}

func TestTransportMatrixDifferential(t *testing.T) {
	for _, c := range diffCases(t) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			if testing.Short() && slowDiffCases[c.name] {
				t.Skipf("%s is one of the two slowest differential cases; run without -short", c.name)
			}
			for _, overlap := range []bool{false, true} {
				gC, sC, err := c.p.RunParallelOpts(exec.RunOptions{Overlap: overlap})
				if err != nil {
					t.Fatalf("channel overlap=%v: %v", overlap, err)
				}
				before := runtime.NumGoroutine()
				gT, sT, err := runOverTCP(t, c.p, exec.RunOptions{Overlap: overlap})
				if err != nil {
					t.Fatalf("tcp overlap=%v: %v", overlap, err)
				}
				if diff, at := gC.MaxAbsDiff(gT, c.p.ScanSpace); diff != 0 {
					t.Fatalf("overlap=%v: tcp differs from channel by %g at %v", overlap, diff, at)
				}
				if !reflect.DeepEqual(sC, sT) {
					t.Fatalf("overlap=%v: traffic stats differ across transports\nchannel: %+v\ntcp:     %+v", overlap, sC, sT)
				}
				checkGoroutines(t, before)
			}
		})
	}
}

// TestChaosMatrixOverTCP runs the chaos fault classes — slow rank,
// delayed jittery links, transient send failures, crash with
// checkpointed restart — over the TCP transport and requires the
// fault-free channel-fabric Global and Stats, bit for bit. This is the
// crash-restart machinery recovering over real sockets.
func TestChaosMatrixOverTCP(t *testing.T) {
	seed := chaosSeed(t)
	for _, c := range chaosCases(t) {
		c := c
		for _, overlap := range []bool{false, true} {
			want, wantStats, err := c.p.RunParallelOpts(exec.RunOptions{Overlap: overlap})
			if err != nil {
				t.Fatalf("%s fault-free overlap=%v: %v", c.name, overlap, err)
			}
			for _, f := range chaosFaults(t, seed, c.p.Dist) {
				f := f
				t.Run(fmt.Sprintf("%s/overlap=%v/%s", c.name, overlap, f.name), func(t *testing.T) {
					before := runtime.NumGoroutine()
					got, gotStats, err := runOverTCP(t, c.p, exec.RunOptions{
						Overlap:    overlap,
						Net:        f.net,
						Checkpoint: f.ck,
					})
					if err != nil {
						t.Fatalf("faulty tcp run: %v", err)
					}
					if diff, at := want.MaxAbsDiff(got, c.p.ScanSpace); diff != 0 {
						t.Fatalf("faulty tcp run differs from fault-free channel run by %g at %v", diff, at)
					}
					if f.name == "transient-send-failure" {
						if gotStats.SendRetries == 0 {
							t.Error("no retries injected — the fault class is inert at this seed")
						}
						gotStats = dropRetries(gotStats)
					}
					if !reflect.DeepEqual(wantStats, gotStats) {
						t.Fatalf("traffic stats drifted across transport under faults\nchannel fault-free: %+v\ntcp faulty:         %+v", wantStats, gotStats)
					}
					checkGoroutines(t, before)
				})
			}
		}
	}
}

// TestPooledTCPWorldReuse is the serve pool's TCP contract: one TCP
// world, Reset between runs, must stay bit-identical to fresh channel
// runs across repeated executions and mode changes.
func TestPooledTCPWorldReuse(t *testing.T) {
	var c *diffCase
	for _, dc := range diffCases(t) {
		if dc.name == "sor/rect" {
			dc := dc
			c = &dc
			break
		}
	}
	if c == nil {
		t.Fatal("sor/rect case missing")
	}
	refs := map[bool]struct {
		g *exec.Global
		s mpi.Stats
	}{}
	for _, overlap := range []bool{false, true} {
		g, s, err := c.p.RunParallelOpts(exec.RunOptions{Overlap: overlap})
		if err != nil {
			t.Fatal(err)
		}
		refs[overlap] = struct {
			g *exec.Global
			s mpi.Stats
		}{g, s}
	}

	w, err := mpi.NewTCPWorld(c.p.Dist.NumProcs(), mpi.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 0; i < 4; i++ {
		overlap := i%2 == 1
		got, gotStats, err := c.p.RunParallelOpts(exec.RunOptions{Overlap: overlap, World: w})
		if err != nil {
			t.Fatalf("reused tcp run %d: %v", i, err)
		}
		ref := refs[overlap]
		if diff, at := ref.g.MaxAbsDiff(got, c.p.ScanSpace); diff != 0 {
			t.Fatalf("reused tcp run %d differs by %g at %v", i, diff, at)
		}
		if !reflect.DeepEqual(ref.s, gotStats) {
			t.Fatalf("reused tcp run %d stats drifted\nwant %+v\n got %+v", i, ref.s, gotStats)
		}
	}
}

// TestCheckpointSaveSnapshots pins the Save sink of the one checkpoint
// option: snapshots appear at the configured cadence with coherent chain
// positions, LDS prefixes and stream counts, and taking them does not
// perturb the result or the traffic stats.
func TestCheckpointSaveSnapshots(t *testing.T) {
	var c *diffCase
	for _, dc := range diffCases(t) {
		if dc.name == "jacobi/rect" {
			dc := dc
			c = &dc
			break
		}
	}
	if c == nil {
		t.Fatal("jacobi/rect case missing")
	}
	want, wantStats, err := c.p.RunParallelOpts(exec.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// A snapshot is only valid during Save, so keep what is checked.
	type saved struct {
		next       int64
		lds, recvd int
	}
	var mu sync.Mutex
	snaps := map[int][]saved{}
	got, gotStats, err := runOverTCP(t, c.p, exec.RunOptions{
		Net: mpi.Options{Watchdog: 10 * time.Second},
		Checkpoint: &exec.CheckpointOptions{
			Every: 2,
			Save: func(s *exec.RankSnapshot) error {
				recv, _, err := c.p.StreamPositions(s.Rank, s.NextTile)
				if err != nil {
					return err
				}
				var recvd uint64
				for _, p := range recv {
					recvd += p.Count
				}
				mu.Lock()
				snaps[s.Rank] = append(snaps[s.Rank], saved{s.NextTile, len(s.LDS), int(recvd)})
				mu.Unlock()
				return nil
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if diff, at := want.MaxAbsDiff(got, c.p.ScanSpace); diff != 0 {
		t.Fatalf("checkpointed run differs by %g at %v", diff, at)
	}
	if !reflect.DeepEqual(wantStats, gotStats) {
		t.Fatalf("checkpointed run stats drifted\nwant %+v\n got %+v", wantStats, gotStats)
	}
	if len(snaps) == 0 {
		t.Fatal("no snapshots taken")
	}
	for r, list := range snaps {
		for i, s := range list {
			if s.next%2 != 0 || s.next <= 0 || s.next >= c.p.Dist.ChainLen[r] {
				t.Fatalf("rank %d snapshot %d at unexpected tile %d", r, i, s.next)
			}
			if s.lds == 0 {
				t.Fatalf("rank %d snapshot %d has empty LDS", r, i)
			}
			if i > 0 && (s.next <= list[i-1].next || s.lds < list[i-1].lds || s.recvd < list[i-1].recvd) {
				t.Fatalf("rank %d snapshots went backwards: %+v then %+v", r, list[i-1], s)
			}
		}
	}
}

// TestCheckpointSaveKeepsNoRecoveryLog pins what the Save sink gives up:
// the rank keeps no held payloads (recovery is a relaunched
// process riding the wire's resume protocol), so an in-process crash is as
// fatal as with no checkpointing at all — it must abort, not limp on.
func TestCheckpointSaveKeepsNoRecoveryLog(t *testing.T) {
	for _, dc := range diffCases(t) {
		if dc.name != "sor/rect" {
			continue
		}
		_, _, err := dc.p.RunParallelOpts(exec.RunOptions{
			Net:        mpi.Options{Faults: &mpi.FaultPlan{Crash: map[int]int64{1: 1}}},
			Checkpoint: &exec.CheckpointOptions{Every: 1, Save: func(*exec.RankSnapshot) error { return nil }},
		})
		if err == nil || !strings.Contains(err.Error(), "crashed") {
			t.Fatalf("crash under Checkpoint.Save: err = %v, want the run-lost diagnostic", err)
		}
		return
	}
	t.Fatal("sor/rect case missing")
}

// TestRelaunchFromSnapshot is cmd/tilerankd's kill-and-relaunch in one
// process, where the race detector sees it: every rank runs on a mesh of
// its own, as a rank process would. The victim's Save hook keeps its first
// snapshot and fails the run; its world is closed, and a new mesh on the
// same address is built from StreamPositions at the snapshot's slot and
// resumes the chain from the snapshot. The merged fragments must equal
// RunSequential.
func TestRelaunchFromSnapshot(t *testing.T) {
	cases := map[string]bool{"sor/rect": false, "sor/nonrect": true} // name → overlap
	for _, c := range diffCases(t) {
		overlap, ok := cases[c.name]
		if !ok {
			continue
		}
		delete(cases, c.name)
		t.Run(c.name, func(t *testing.T) { relaunchFromSnapshot(t, c.p, overlap) })
	}
	if len(cases) != 0 {
		t.Fatalf("differential cases missing: %v", cases)
	}
}

func relaunchFromSnapshot(t *testing.T, p *exec.Program, overlap bool) {
	want, err := p.RunSequential()
	if err != nil {
		t.Fatal(err)
	}
	// The ranks run on the states an in-process run left, their LDSs NaN:
	// the merged result must be that run's bit for bit.
	whole, _, err := p.RunParallelOpts(exec.RunOptions{Overlap: overlap})
	if err != nil {
		t.Fatal(err)
	}
	if n := p.FillHeldLDS(); n != p.Dist.NumProcs() {
		t.Fatalf("%d rank states held after a run, want one per rank (%d)", n, p.Dist.NumProcs())
	}
	// The victim: the first rank whose mid-chain snapshot has traffic both
	// claimed and sent, so the relaunch resumes every kind of stream.
	procs := p.Dist.NumProcs()
	victim, every := -1, int64(0)
	for r := 0; r < procs && victim < 0; r++ {
		next := p.Dist.ChainLen[r] / 2
		if next < 1 {
			continue
		}
		recv, sent, err := p.StreamPositions(r, next)
		if err != nil {
			t.Fatal(err)
		}
		if len(recv) > 0 && len(sent) > 0 {
			victim, every = r, next
		}
	}
	if victim < 0 {
		t.Fatal("no rank claims and sends before its mid-chain snapshot")
	}

	net := mpi.Options{Watchdog: 10 * time.Second}
	addrs := map[int]string{}
	newMesh := func(r int, recv, sent []mpi.StreamPos) *mpi.TCPMesh {
		m, err := mpi.NewTCPMesh(mpi.TCPConfig{
			Size: procs, Local: []int{r}, Listen: addrs[r], Addrs: addrs,
			PeerWait: 10 * time.Second, Heartbeat: 10 * time.Millisecond,
			Recv: recv, Sent: sent,
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	meshes := make([]*mpi.TCPMesh, procs)
	for r := range meshes {
		meshes[r] = newMesh(r, nil, nil)
		addrs[r] = meshes[r].Addr()
	}
	worlds := make([]*mpi.World, procs)
	for r, m := range meshes {
		worlds[r] = mpi.NewRemoteWorld(procs, []int{r}, net, m)
	}
	t.Cleanup(func() {
		for _, w := range worlds {
			w.Close()
		}
	})

	killed := errors.New("killed after its first snapshot")
	var snap *exec.RankSnapshot
	frags := make([]*exec.Global, procs)
	errs := make([]error, procs)
	var wg sync.WaitGroup
	run := func(r int, opt exec.RunOptions) *sync.WaitGroup {
		opt.Overlap, opt.Net, opt.World = overlap, net, worlds[r]
		var done sync.WaitGroup
		for _, g := range []*sync.WaitGroup{&wg, &done} {
			g.Add(1)
		}
		go func() {
			defer wg.Done()
			defer done.Done()
			frags[r], _, errs[r] = p.RunParallelOpts(opt)
		}()
		return &done
	}
	var victimRun *sync.WaitGroup
	for r := range worlds {
		if r != victim {
			run(r, exec.RunOptions{})
			continue
		}
		victimRun = run(r, exec.RunOptions{Checkpoint: &exec.CheckpointOptions{Every: every, Save: func(s *exec.RankSnapshot) error {
			snap = &exec.RankSnapshot{Rank: s.Rank, NextTile: s.NextTile, LDS: slices.Clone(s.LDS)}
			return killed
		}}})
	}
	// The victim's run ends at its failed Save while its peers wait on it.
	victimRun.Wait()
	if !errors.Is(errs[victim], killed) || snap == nil {
		t.Fatalf("victim rank %d: err = %v, snapshot %v; want its Save's error after one snapshot", victim, errs[victim], snap != nil)
	}
	worlds[victim].Close()

	recv, sent, err := p.StreamPositions(victim, snap.NextTile)
	if err != nil {
		t.Fatal(err)
	}
	worlds[victim] = mpi.NewRemoteWorld(procs, []int{victim}, net, newMesh(victim, recv, sent))
	run(victim, exec.RunOptions{Checkpoint: &exec.CheckpointOptions{Every: every, Resume: snap}})
	wg.Wait()

	results := make([]*procrun.RankResult, procs)
	for r, g := range frags {
		if errs[r] != nil {
			t.Fatalf("rank %d: %v", r, errs[r])
		}
		vals, err := procrun.OwnedValues(p, g, r)
		if err != nil {
			t.Fatal(err)
		}
		results[r] = &procrun.RankResult{Rank: r, Values: vals}
	}
	got, _, err := procrun.Merge(p, results)
	if err != nil {
		t.Fatal(err)
	}
	if diff, at := want.MaxAbsDiff(got, p.ScanSpace); diff != 0 {
		t.Fatalf("rank %d relaunched at slot %d: the merged result differs from RunSequential by %g at %v", victim, snap.NextTile, diff, at)
	}
	if at, differ := got.FirstBitDiff(whole); differ {
		t.Fatalf("rank %d relaunched at slot %d: the merged result differs from the in-process run at %v", victim, snap.NextTile, at)
	}
}
